package repro.core

import org.apache.spark.sql.SparkSession
import repro.kdtree.KdTree

/** O(n^2)-style dependent-point search with early termination (§2.1 step 3):
  * points are sorted by descending density and each point scans only the
  * points ranked above it. Shared by Scan, R-tree + Scan and CFSFDP-A (the
  * paper runs CFSFDP-A with Scan's dependent phase).
  */
object ScanDependents {

  /** Returns `(depId, delta)`; the top-density point gets `(-1, +inf)`. */
  def compute(spark: SparkSession, pts: Pts, rho: Array[Double]): (Array[Int], Array[Double]) = {
    val n     = pts.n
    val order = Array.tabulate(n)(identity).sortBy(i => -rho(i))
    val rank  = new Array[Int](n)
    var r = 0
    while (r < n) { rank(order(r)) = r; r += 1 }

    // Cost of point i is its rank (prefix length scanned) — LPT-balance it.
    val costs = Array.tabulate(n)(i => math.max(1.0, rank(i).toDouble))
    val out = Par.mapBalanced[(Int, Int, Double)](spark, costs, spark.sparkContext.defaultParallelism) { idxs =>
      idxs.iterator.map { i =>
        val myRank = rank(i)
        var bestId = -1
        var bestD2 = Double.PositiveInfinity
        var s = 0
        while (s < myRank) {
          val j  = order(s)
          val d2 = pts.dist2(i, j)
          if (d2 < bestD2) { bestD2 = d2; bestId = j }
          s += 1
        }
        (i, bestId, if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2))
      }
    }
    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    out.foreach { case (i, q, dd) => depId(i) = q; delta(i) = dd }
    (depId, delta)
  }
}

/** The exact dependent-point search of Approx-DPC (§4.3): sort a candidate
  * universe by ascending density, split it into `s` contiguous subsets sized by
  * Equation (2), index each subset with a kd-tree, and answer each query with
  *
  *  - case (ii): partial scan of the query's own subset (only higher ranks),
  *  - case (i):  bounded NN searches on every higher subset's kd-tree,
  *  - case (iii): lower subsets skipped.
  *
  * Queries are distributed to Spark tasks with the paper's cost model
  * `cost_dep` via LPT. Also reused by S-Approx-DPC's fallback (universe =
  * picked points).
  */
object ExactDependents {

  /** Smallest s with n/s <= (s-1) * (n/s)^{1-1/d} (Equation 2). */
  def chooseS(n: Int, d: Int): Int = {
    var s = 2
    while (s < 64 && n.toDouble / s > (s - 1).toDouble * math.pow(n.toDouble / s, 1.0 - 1.0 / d)) s += 1
    s
  }

  /** For each query (must be in `universe`), the nearest universe point with
    * strictly higher density. Returns `(query, depId, delta)` triples; queries
    * with no higher-density universe point get `(-1, +inf)`.
    */
  def compute(
      spark: SparkSession,
      pts: Pts,
      rho: Array[Double],
      universe: Array[Int],
      queries: Array[Int]
  ): Array[(Int, Int, Double)] = {
    val m = universe.length
    if (m == 0 || queries.isEmpty)
      return queries.map(q => (q, -1, Double.PositiveInfinity))

    val sorted = universe.sortBy(i => rho(i)) // ascending density
    val rankOf = new java.util.HashMap[Integer, Integer](m * 2)
    var r = 0
    while (r < m) { rankOf.put(sorted(r), r); r += 1 }

    val s     = math.min(chooseS(m, pts.d), m)
    val bound = Array.tabulate(s + 1)(j => j * m / s) // subset j = ranks [bound(j), bound(j+1))
    val trees = Array.tabulate(s) { j =>
      new KdTree(pts).buildFrom(sorted.slice(bound(j), bound(j + 1)))
    }
    val subsetOf = new Array[Int](m)
    var j = 0
    while (j < s) {
      var t = bound(j)
      while (t < bound(j + 1)) { subsetOf(t) = j; t += 1 }
      j += 1
    }

    val perSub  = m.toDouble / s
    val nnCost  = math.pow(perSub, 1.0 - 1.0 / pts.d)
    val costs = queries.map { q =>
      val rank  = rankOf.get(q).intValue()
      val own   = subsetOf(rank)
      val above = s - own - 1
      // cost_dep of §4.5: a partial scan of the own subset plus an NN per higher subset.
      (bound(own + 1) - rank).toDouble + above * nnCost + 1.0
    }
    Par.mapBalanced[(Int, Int, Double)](spark, costs, spark.sparkContext.defaultParallelism) { idxs =>
      idxs.iterator.map { qi =>
        val q     = queries(qi)
        val rank  = rankOf.get(q).intValue()
        val own   = subsetOf(rank)
        val qc    = pts.point(q)
        var bestId = -1
        var bestD2 = Double.PositiveInfinity
        // case (ii): own subset, higher ranks only
        var t = rank + 1
        while (t < bound(own + 1)) {
          val cand = sorted(t)
          val d2   = pts.dist2(q, cand)
          if (d2 < bestD2) { bestD2 = d2; bestId = cand }
          t += 1
        }
        // case (i): subsets strictly above
        var jj = own + 1
        while (jj < s) {
          val b = if (bestD2.isInfinity) Double.PositiveInfinity else math.sqrt(bestD2)
          val (id, dist) = trees(jj).nearest(qc, b)
          if (id >= 0 && dist * dist < bestD2) { bestD2 = dist * dist; bestId = id }
          jj += 1
        }
        (q, bestId, if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2))
      }
    }
  }

  /** Modelled footprint of the subset kd-trees over `m` points. */
  def memBytes(m: Int): Long = m.toLong * 40L
}
