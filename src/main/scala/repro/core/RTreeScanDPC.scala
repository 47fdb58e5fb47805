package repro.core

import org.apache.spark.sql.SparkSession
import repro.rtree.RTree

/** The `R-tree + Scan` baseline: densities via range counting on a bulk-loaded
  * R-tree (alleviating the rho phase), dependent points still via Scan's
  * quadratic sorted scan — exactly the combination the paper evaluates.
  */
object RTreeScanDPC extends DPCAlgorithm {
  override val name = "R-tree + Scan"

  override def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = {
    val t0   = System.nanoTime()
    val tree = new RTree(pts).buildAll()
    // rangeCount includes the query point itself (distance 0): subtract it.
    val rho = ExactDensity.compute(spark, pts.n)(i => tree.rangeCount(pts.point(i), params.dcut) - 1)
    val t1  = System.nanoTime()

    val (depId, delta) = ScanDependents.compute(spark, pts, rho)
    val t2 = System.nanoTime()

    new DPCResult(rho, depId, delta,
      PhaseTimes((t1 - t0) / 1000000L, (t2 - t1) / 1000000L), tree.memBytes)
  }
}
