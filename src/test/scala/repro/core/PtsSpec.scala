package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.{SparkSpec, TestUtil}

class PtsSpec extends SparkSpec {

  test("fromArrays stores coordinates row-major") {
    val pts = Pts.fromArrays(2, Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(pts.n === 2 && pts.d === 2)
    assert(pts.coord(0, 0) === 1.0 && pts.coord(1, 1) === 4.0)
    assert(pts.point(1).toSeq === Seq(3.0, 4.0))
  }

  test("dist2 / dist / dist2To agree") {
    val pts = Pts.fromArrays(3, Seq(Array(0.0, 0.0, 0.0), Array(1.0, 2.0, 2.0)))
    assert(pts.dist2(0, 1) === 9.0)
    assert(pts.dist(0, 1) === 3.0)
    assert(pts.dist2To(0, Array(1.0, 2.0, 2.0)) === 9.0)
  }

  test("DataFrame round trip preserves points and ids") {
    val pts = TestUtil.uniformPts(97, 3, 10.0, seed = 60)
    val df  = Pts.toDF(spark, pts)
    assert(df.columns.toSeq === Seq("id", "x0", "x1", "x2"))
    val back = Pts.fromDF(df)
    assert(back.n === pts.n && back.d === pts.d)
    (0 until pts.n).foreach { i =>
      assert(back.ids(i) === pts.ids(i))
      assert(back.point(i).toSeq === pts.point(i).toSeq)
    }
  }

  test("fromDF orders by id") {
    import org.apache.spark.sql.functions._
    val pts = TestUtil.uniformPts(50, 2, 10.0, seed = 61)
    val df  = Pts.toDF(spark, pts).orderBy(rand(1))
    val back = Pts.fromDF(df)
    assert(back.ids.toSeq === (0 until 50).map(_.toLong))
  }

  test("fromDF rejects frames without coordinate columns") {
    import spark.implicits._
    val df = Seq((1L, "a")).toDF("id", "name")
    intercept[IllegalArgumentException](Pts.fromDF(df))
  }

  test("mismatched lengths rejected") {
    intercept[IllegalArgumentException](new Pts(2, 2, new Array[Double](3), new Array[Long](2)))
    intercept[IllegalArgumentException](new Pts(2, 2, new Array[Double](4), new Array[Long](3)))
  }

  test("fromArrays rejects NaN and infinite coordinates") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](
        Pts.fromArrays(2, Seq(Array(1.0, 2.0), Array(3.0, bad)))
      )
      assert(e.getMessage.contains("point 1") && e.getMessage.contains("x1"), e.getMessage)
    }
  }

  test("fromDF rejects NaN and infinite coordinates") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val df = Pts.toDF(spark, TestUtil.uniformPts(5, 2, 10.0, seed = 62))
        .selectExpr("id", s"CASE WHEN id = 3 THEN CAST('$bad' AS DOUBLE) ELSE x0 END AS x0", "x1")
      val e = intercept[IllegalArgumentException](Pts.fromDF(df))
      assert(e.getMessage.contains("id 3") && e.getMessage.contains("x0"), e.getMessage)
    }
  }

  test("jitter is deterministic, in (0,1), and injective over a large range") {
    val vals = (0 until 100000).map(Jitter.frac)
    assert(vals.forall(v => v > 0 && v < 1))
    assert(vals.distinct.length === vals.length)
    assert(Jitter.frac(42) === Jitter.frac(42))
  }
}
