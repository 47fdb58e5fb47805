package dpcbench

import com.fasterxml.jackson.databind.ObjectMapper
import java.io.File
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.data.Datasets
import scala.jdk.CollectionConverters._
import scala.util.Random

/** The benchmark's own checks: the reference oracle, the correctness checks
  * (a corrupted result must count as failed) and the metric printer.
  */
class BenchSpec extends AnyFunSuite {

  private def clustered(n: Int, d: Int, seed: Long, domain: Double = 1e4): Pts = {
    val rnd     = new Random(seed)
    val centers = Array.fill(5)(Array.fill(d)(domain * (0.2 + 0.6 * rnd.nextDouble())))
    Pts.fromArrays(d, Seq.fill(n) {
      if (rnd.nextDouble() < 0.05) Array.fill(d)(rnd.nextDouble() * domain)
      else {
        val c = centers(rnd.nextInt(centers.length))
        Array.tabulate(d)(j => c(j) + rnd.nextGaussian() * domain / 25)
      }
    })
  }

  private def brute(pts: Pts, dcut: Double): Reference.Exact = {
    val rho = Array.tabulate(pts.n) { i =>
      (0 until pts.n).count(j => j != i && pts.dist2(i, j) < dcut * dcut) + Jitter.frac(i)
    }
    val dep = Array.tabulate(pts.n) { i =>
      val denser = (0 until pts.n).filter(j => rho(j) > rho(i))
      if (denser.isEmpty) -1 else denser.minBy(j => pts.dist2(i, j))
    }
    Reference.Exact(rho, dep, Array.tabulate(pts.n)(i => if (dep(i) < 0) Double.PositiveInfinity else pts.dist(i, dep(i))))
  }

  /** An input prepared as the benchmark prepares it, with the reference as result. */
  private def prepared(pts: Pts, dcut: Double, k: Int): Prepared = {
    val ref    = Reference.compute(pts, dcut)
    val rhoMin = 2.0
    val params = DPCParams(dcut = dcut, rhoMin = rhoMin,
      deltaMin = DecisionGraph.deltaMinForK(ref.asResult, rhoMin, k, dcut))
    Prepared(InputSpec("test", Datasets.sSet(1), pts.n, Array.fill(15)(1.0), 0.0), pts, params, ref,
      Labels.centers(ref.asResult, params.rhoMin, params.deltaMin),
      Labels.assign(ref.asResult, params.rhoMin, params.deltaMin))
  }

  private def copyOf(r: DPCResult): DPCResult =
    new DPCResult(r.rho.clone(), r.depId.clone(), r.delta.clone(), r.times, r.memBytes)

  private def problems(kind: CheckKind, p: Prepared, r: DPCResult): Seq[String] =
    Checks.check(kind, p, r, Labels.assign(r, p.params.rhoMin, p.params.deltaMin))

  for ((d, dcut) <- Seq(1 -> 40.0, 2 -> 300.0, 5 -> 900.0, 8 -> 1500.0)) {
    test(s"reference equals brute force (d=$d)") {
      val pts = clustered(700, d, seed = 7L + d)
      val ref = Reference.compute(pts, dcut)
      val bf  = brute(pts, dcut)
      assert(ref.rho.sameElements(bf.rho))
      assert(ref.delta.sameElements(bf.delta))
    }
  }

  private lazy val prep = prepared(clustered(1500, 2, seed = 3L), dcut = 300.0, k = 5)

  test("the reference passes every check") {
    val r = prep.ref.asResult
    Seq(CheckKind.Exact, CheckKind.ExactRhoTheorem4, CheckKind.PickedRho).foreach { kind =>
      assert(problems(kind, prep, r).isEmpty, kind)
    }
  }

  test("one perturbed delta fails the exact check") {
    val r = copyOf(prep.ref.asResult)
    val i = r.depId.indexWhere(_ >= 0)
    r.delta(i) += 1e-3
    assert(problems(CheckKind.Exact, prep, r).exists(_.startsWith("delta differs from the reference")))
  }

  test("one perturbed rho fails every check") {
    val r = copyOf(prep.ref.asResult)
    val i = r.depId.indexWhere(_ >= 0)
    r.rho(i) = math.nextUp(r.rho(i))
    Seq(CheckKind.Exact, CheckKind.ExactRhoTheorem4, CheckKind.PickedRho).foreach { kind =>
      assert(problems(kind, prep, r).nonEmpty, kind)
    }
  }

  test("one dropped center fails the Theorem-4 check") {
    val r = copyOf(prep.ref.asResult)
    val c = prep.refCenters.find(i => r.depId(i) >= 0).get
    r.delta(c) = prep.params.dcut // Approx-DPC's cell-based delta, below delta_min
    val found = problems(CheckKind.ExactRhoTheorem4, prep, r)
    assert(found.exists(_.contains("are not the Theorem-4 centers")), found)
  }

  test("a dependent point that is not denser fails every check") {
    val r = copyOf(prep.ref.asResult)
    val i = r.rho.indices.maxBy(r.rho)          // the global peak
    val j = r.depId.indexWhere(_ == i)          // one of its dependents
    r.depId(i) = j
    r.delta(i) = prep.pts.dist(i, j)
    Seq(CheckKind.Exact, CheckKind.ExactRhoTheorem4, CheckKind.PickedRho).foreach { kind =>
      assert(problems(kind, prep, r).exists(_.startsWith("dependent point is not denser")), kind)
    }
  }

  test("an approximate delta below the true distance fails the picked-rho check") {
    val r = copyOf(prep.ref.asResult)
    val i = r.delta.indices.filter(i => r.depId(i) >= 0).maxBy(r.delta)
    r.delta(i) = r.delta(i) / 2
    assert(problems(CheckKind.PickedRho, prep, r).exists(_.startsWith("delta below the distance")))
  }

  test("a call that throws is counted as failed, not raised") {
    val boom = new DPCAlgorithm {
      val name = "boom"
      def run(spark: SparkSession, pts: Pts, params: DPCParams): DPCResult = throw new IllegalStateException("boom")
    }
    val call = Main.attempt(null, Algo("boom", boom, CheckKind.Exact), prep, None, "boom/test/r0")
    assert(call.result.isEmpty)
    assert(call.problems.exists(_.contains("boom")))
  }

  test("the result line carries every metric with its unit") {
    Seq(Report.endToEnd, Report.perLayer).foreach { catalogue =>
      val values = catalogue.zipWithIndex.map { case (m, i) => m.name -> (i + 0.5) }.toMap
      val node   = new ObjectMapper().readTree(Report.resultLine(correct = true, 3, 0, catalogue, values))
      assert(node.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
      val metrics = node.get("metrics")
      assert(metrics.size() == catalogue.length)
      catalogue.zipWithIndex.foreach { case (m, i) =>
        assert(metrics.get(m.name).get("unit").asText() == m.unit, m.name)
        assert(metrics.get(m.name).get("value").asDouble() == i + 0.5, m.name)
      }
      assertThrows[IllegalArgumentException](Report.resultLine(correct = true, 1, 0, catalogue, values - catalogue.head.name))
    }
  }

  test("BENCHMARK.json lists exactly the metrics the benchmark prints") {
    val spec = new ObjectMapper().readTree(new File("../BENCHMARK.json"))
    def listed(key: String): Seq[Report.Metric] =
      spec.get(key).elements().asScala.map(m => Report.Metric(m.get("name").asText(), m.get("unit").asText())).toSeq
    assert(listed("end_to_end") == Report.endToEnd)
    assert(listed("per_layer") == Report.perLayer)
    assert(spec.get("workloads").elements().asScala.map(_.get("name").asText()).toSeq == Workloads.all.map(_.name))
  }

  test("command-line arguments are validated") {
    assert(Main.parse(Array("--workload", "small-2d", "--seed", "3", "--seconds", "5", "--trace", "1")).isRight)
    assert(Main.parse(Array("--workload", "nope", "--seed", "3", "--seconds", "5", "--trace", "0")).isLeft)
    assert(Main.parse(Array("--workload", "small-2d", "--seed", "x", "--seconds", "5", "--trace", "0")).isLeft)
    assert(Main.parse(Array("--workload", "small-2d", "--seed", "3", "--seconds", "5", "--trace", "2")).isLeft)
    assert(Main.parse(Array("--workload", "small-2d", "--seed", "3", "--seconds", "5")).isLeft)
  }

  test("tail percentile leaves ten samples beyond it") {
    assert(Stats.tail(Seq.tabulate(10)(_.toDouble)).isEmpty)
    val (pct, v) = Stats.tail(Seq.tabulate(100)(_.toDouble)).get
    assert(pct == 90.0 && v == 89.0)
  }
}
