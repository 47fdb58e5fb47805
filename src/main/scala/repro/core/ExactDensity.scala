package repro.core

import org.apache.spark.sql.SparkSession

/** The exact density phase of Scan, R-tree + Scan, Ex-DPC and CFSFDP-A: one
  * independent neighbour count per point, run with dynamic scheduling (the
  * paper's `omp parallel for schedule(dynamic)`). The algorithms differ only
  * in the index behind `count`.
  */
object ExactDensity {

  /** Jittered densities: `rho(i) = count(i) + Jitter.frac(i)`, where `count(i)`
    * is the number of other points strictly within dcut of point i.
    */
  def compute(spark: SparkSession, n: Int)(count: Int => Int): Array[Double] = {
    val rho = new Array[Double](n)
    Par.mapIndexed[(Int, Double)](spark, n)(_.iterator.map(i => (i, count(i) + Jitter.frac(i))))
      .foreach { case (i, r) => rho(i) = r }
    rho
  }
}
