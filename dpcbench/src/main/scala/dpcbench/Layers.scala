package dpcbench

import org.apache.spark.sql.SparkSession
import repro.core.{Labels, Par}
import repro.grid.Grid
import repro.kdtree.KdTree

/** Replays of the substrates the algorithms are built from, timed alone on a
  * workload's inputs through their public functions. Each value is the median
  * over `reps` replays of the sum over the workload's inputs.
  */
object Layers {

  /** Range-count queries timed per input (a fixed stride over the points). */
  val RangeQueries = 5000

  def replay(spark: SparkSession, preps: Seq[Prepared], reps: Int, spans: SpanLog): Map[String, Double] = {
    def timed[A](f: => A): (A, Double) = { val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e9) }
    def medianOf(name: String)(perInput: Prepared => Double): Double =
      Stats.median((0 until reps).map(_ => spans.time(s"replay $name")(preps.map(perInput).sum)._1))

    val buildS = medianOf("kdtree.build")(p => timed(new KdTree(p.pts).buildAll())._2)

    // Mean single-thread range count per query, over a fixed stride of points.
    val rangeUs = medianOf("kdtree.range_count") { p =>
      val tree   = new KdTree(p.pts).buildAll()
      val stride = math.max(1, p.pts.n / RangeQueries)
      val qs     = (0 until p.pts.n by stride).map(p.pts.point)
      val (_, s) = timed(qs.foreach(q => tree.rangeCount(q, p.params.dcut)))
      1e6 * s / qs.length / preps.length
    }

    // Ex-DPC's dependent phase: insert in descending reference density, NN before each insert.
    val insertNearestS = medianOf("kdtree.insert_nearest") { p =>
      val order = Array.tabulate(p.pts.n)(identity).sortBy(i => -p.ref.rho(i))
      timed {
        val inc = new KdTree(p.pts)
        order.foreach { i => inc.nearest(p.pts.point(i)); inc.insert(i) }
      }._2
    }

    def approxGrid(p: Prepared): Grid = new Grid(p.pts, p.params.dcut / math.sqrt(p.pts.d.toDouble))
    val gridS = medianOf("grid.build")(p => timed(approxGrid(p))._2)
    val cells = preps.map(p => approxGrid(p).nCells).sum

    // A no-op Par fan-out over the LPT groups of Approx-DPC's grid cells.
    val noopS = medianOf("par.noop_fanout") { p =>
      import spark.implicits._
      val costs = approxGrid(p).cells.map(_.length.toDouble)
      timed(Par.mapBalanced[Int](spark, costs, spark.sparkContext.defaultParallelism)(_ => Iterator.empty))._2
    }

    val assignS = medianOf("labels.assign") { p =>
      timed(Labels.assign(p.ref.asResult, p.params.rhoMin, p.params.deltaMin))._2
    }

    Map(
      "kdtree.build_s"          -> buildS,
      "kdtree.range_count_us"   -> rangeUs,
      "kdtree.insert_nearest_s" -> insertNearestS,
      "grid.build_s"            -> gridS,
      "grid.cells"              -> cells.toDouble,
      "par.noop_fanout_s"       -> noopS,
      "labels.assign_s"         -> assignS
    )
  }
}
