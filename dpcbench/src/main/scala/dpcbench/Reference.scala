package dpcbench

import java.util.stream.IntStream
import repro.core.{DPCResult, Jitter, PhaseTimes, Pts}
import scala.collection.mutable

/** The benchmark's own exact DPC, used as the reference every timed result is
  * checked against. It shares no index with the algorithms under test: points
  * are bucketed by a uniform grid of side `dcut` over their first
  * `min(d, 4)` coordinates, so every point within `dcut` of p lies in one of
  * the 3^min(d,4) cells around p's cell.
  *
  *  - rho: count of the candidates at distance < dcut, plus `Jitter.frac`;
  *  - delta: nearest denser candidate; when none lies within dcut, a scan of
  *    every denser point (these are the few local peaks and noise points).
  */
object Reference {

  final case class Exact(rho: Array[Double], depId: Array[Int], delta: Array[Double]) {
    def asResult: DPCResult = new DPCResult(rho, depId, delta, PhaseTimes(0L, 0L), 0L)
  }

  private val MaxDims = 4
  private val Bits    = 16 // bits of a packed cell coordinate
  private val Offset  = 1 << (Bits - 1)

  def compute(pts: Pts, dcut: Double): Exact = {
    val n     = pts.n
    val dcut2 = dcut * dcut
    val m     = math.min(pts.d, MaxDims)

    // Cells: a packed key per occupied cell; the points of cell c are
    // sorted(start(c) until start(c + 1)).
    val cellIndex = new java.util.HashMap[java.lang.Long, Integer]()
    val cellKeys  = mutable.ArrayBuilder.make[Long]
    val cellOf    = new Array[Int](n)
    var i = 0
    while (i < n) {
      var key = 0L
      var j = 0
      while (j < m) {
        val c = math.floor(pts.coord(i, j) / dcut)
        require(math.abs(c) < Offset - 1, s"coordinate ${pts.coord(i, j)} too far from the origin for the reference grid")
        key = (key << Bits) | (c.toLong + Offset)
        j += 1
      }
      var c = cellIndex.get(key)
      if (c == null) { c = cellIndex.size; cellIndex.put(key, c); cellKeys += key }
      cellOf(i) = c
      i += 1
    }
    val keys   = cellKeys.result()
    val nCells = keys.length
    val start  = new Array[Int](nCells + 1)
    i = 0
    while (i < n) { start(cellOf(i) + 1) += 1; i += 1 }
    var c = 0
    while (c < nCells) { start(c + 1) += start(c); c += 1 }
    val sorted = new Array[Int](n)
    val fill   = start.clone()
    i = 0
    while (i < n) { sorted(fill(cellOf(i))) = i; fill(cellOf(i)) += 1; i += 1 }

    /** Integer coordinate j of a packed cell key. */
    def coordOf(key: Long, j: Int): Int = ((key >>> (Bits * (m - 1 - j))) & 0xffff).toInt - Offset

    // Occupied cells among the 3^m around each cell, and each cell's lower corner.
    val offsets = Array.tabulate(math.pow(3, m).toInt)(code => Array.tabulate(m)(j => (code / math.pow(3, j).toInt) % 3 - 1))
    val neighbours = Array.tabulate(nCells) { c =>
      val out = mutable.ArrayBuilder.make[Int]
      offsets.foreach { o =>
        var key = 0L
        var j = 0
        while (j < m) { key = (key << Bits) | (coordOf(keys(c), j) + o(j) + Offset).toLong; j += 1 }
        val nb = cellIndex.get(key)
        if (nb != null) out += nb.intValue
      }
      out.result()
    }
    val cellLo = Array.tabulate(nCells * m)(x => coordOf(keys(x / m), x % m) * dcut)

    // Cells farther than dcut are skipped; the slack absorbs rounding of the box bounds.
    val prune2 = dcut2 * (1 + 1e-9)

    /** Squared distance from point i to cell c's box in the first m coordinates. */
    def boxDist2(i: Int, c: Int): Double = {
      var sum = 0.0
      var j = 0
      while (j < m) {
        val lo = cellLo(c * m + j)
        val x  = pts.coord(i, j)
        val t  = if (x < lo) lo - x else if (x > lo + dcut) x - lo - dcut else 0.0
        sum += t * t
        j += 1
      }
      sum
    }

    val rho = new Array[Double](n)
    IntStream.range(0, n).parallel().forEach { i =>
      var cnt = 0
      val nb  = neighbours(cellOf(i))
      var b = 0
      while (b < nb.length) {
        val c = nb(b)
        if (boxDist2(i, c) < prune2) {
          var z = start(c)
          while (z < start(c + 1)) {
            val j = sorted(z)
            if (j != i && pts.dist2(i, j) < dcut2) cnt += 1
            z += 1
          }
        }
        b += 1
      }
      rho(i) = cnt + Jitter.frac(i)
    }

    val order = Array.tabulate(n)(identity).sortBy(i => -rho(i))
    val rank  = new Array[Int](n)
    var r = 0
    while (r < n) { rank(order(r)) = r; r += 1 }
    // Coordinates in descending-density order, for sequential scans of denser points.
    val d      = pts.d
    val byRank = new Array[Double](n * d)
    r = 0
    while (r < n) { System.arraycopy(pts.data, order(r) * d, byRank, r * d, d); r += 1 }

    val depId = new Array[Int](n)
    val delta = new Array[Double](n)
    IntStream.range(0, n).parallel().forEach { i =>
      var bestId = -1
      var bestD2 = Double.PositiveInfinity
      val nb     = neighbours(cellOf(i))
      var b = 0
      while (b < nb.length) {
        val c = nb(b)
        if (boxDist2(i, c) < prune2) {
          var z = start(c)
          while (z < start(c + 1)) {
            val j = sorted(z)
            if (rho(j) > rho(i)) {
              val d2 = pts.dist2(i, j)
              if (d2 < bestD2) { bestD2 = d2; bestId = j }
            }
            z += 1
          }
        }
        b += 1
      }
      if (bestD2 > dcut2) { // a closer denser point may lie outside the scanned cells
        val q = pts.point(i)
        var s = 0
        while (s < rank(i)) {
          var d2 = 0.0
          var k  = 0
          while (k < d) { val t = byRank(s * d + k) - q(k); d2 += t * t; k += 1 }
          if (d2 < bestD2) { bestD2 = d2; bestId = order(s) }
          s += 1
        }
      }
      depId(i) = bestId
      delta(i) = if (bestId < 0) Double.PositiveInfinity else math.sqrt(bestD2)
    }
    Exact(rho, depId, delta)
  }
}
