package dpcbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.data.{DatasetSpec, Datasets, PointGen}
import repro.exp.Tables

/** One input of a workload: a `Datasets` stand-in (dimension, k, domain,
  * dcut, rho_min) with its Gaussian-mixture recipe (per-cluster sigmas and
  * noise rate), generated from the benchmark's seeds instead of the seeds
  * hard-coded in `Datasets`.
  */
final case class InputSpec(label: String, spec: DatasetSpec, n: Int, sigmas: Array[Double], noise: Double) {
  require(sigmas.length == spec.k, s"$label: ${sigmas.length} sigmas for k=${spec.k}")

  /** Point DataFrame `(id, x0..x{d-1})`. `layoutSeed` places the cluster
    * centers, `seed` draws the points; the same seeds give the same points.
    */
  def generate(spark: SparkSession, layoutSeed: Long, seed: Long): DataFrame = {
    val centers = PointGen.gridCenters(spec.k, spec.d, spec.domain, seed = layoutSeed)
    PointGen.mixture(spark, n.toLong, spec.d, centers, sigmas, noise, spec.domain, seed = seed)
  }

  /** Noise threshold scaled to the input size, as `Harness.prepare` does. */
  def rhoMin: Double = math.max(1.0, spec.rhoMin * n.toDouble / spec.defaultN)
}

/** How a timed result is checked against the benchmark's reference. */
sealed trait CheckKind
object CheckKind {
  /** Exact rho (bit-identical) and exact delta. */
  case object Exact extends CheckKind
  /** Exact rho and the Theorem-4 cluster centers; approximate delta. */
  case object ExactRhoTheorem4 extends CheckKind
  /** Exact rho on the picked (non-NaN) points; approximate delta. */
  case object PickedRho extends CheckKind
}

/** An algorithm under test, with the prefix of its metric names. */
final case class Algo(key: String, impl: DPCAlgorithm, check: CheckKind)

object Algos {
  val exDpc      = Algo("ex_dpc", ExDPC, CheckKind.Exact)
  val approxDpc  = Algo("approx_dpc", ApproxDPC, CheckKind.ExactRhoTheorem4)
  val sApproxDpc = Algo("s_approx_dpc", SApproxDPC, CheckKind.PickedRho)

  /** The paper's three algorithms; every workload runs all of them. */
  val all: Seq[Algo] = Seq(exDpc, approxDpc, sApproxDpc)
}

/** A named workload: its inputs, the S-Approx-DPC epsilon it uses, and the
  * number of discarded warm-up rounds after which its round times level off.
  */
final case class Workload(name: String, inputs: Seq[InputSpec], epsilon: Double, warmupRounds: Int)

object Workloads {

  /** Seed of every input's cluster layout. The layout is part of the
    * workload, as the real data sets' clusters are: which grid cells hold a
    * center changes how many points are undecided, and with it a call's cost
    * by 10-20 % between layouts. `--seed` draws the points.
    */
  val LayoutSeed = 1L

  // The mixture recipes of `Datasets` (sigmas and noise rates); the geometry
  // (d, k, domain, dcut, rho_min) is read from the `Datasets` specs themselves.
  private def syn(noise: Double): InputSpec =
    InputSpec(f"syn-$noise%.2f", Datasets.syn(noise), 20000,
      Array.tabulate(13)(i => 1500.0 + 150.0 * (i % 5)), noise)

  private def sSet(x: Int): InputSpec =
    InputSpec(s"s$x", Datasets.sSet(x), 20000, Array.fill(15)(1400.0 + 800.0 * x), 0.005)

  // About a third of Datasets.household.defaultN. A call's wall time varies
  // by +-15 % from call to call (most of it on the driver in Ex-DPC), so a
  // steady median needs about six calls of each algorithm in a run: at
  // 100 000 points a round takes about 13.5 s, at 50 000 about 6 s.
  private val household: InputSpec =
    InputSpec("household", Datasets.household, 35000, Array.tabulate(12)(i => 1200.0 + 120.0 * (i % 4)), 0.01)

  val all: Seq[Workload] = Seq(
    // Tables 2-3 regime: 2-d, n = 20k; each call is mostly Spark fan-out.
    // Its many short Spark jobs keep getting faster for about six rounds.
    Workload("small-2d", Seq(syn(0.03), sSet(1), sSet(4)), epsilon = 1.0, warmupRounds = 6),
    // Kernel-bound larger n: kd-tree range searches and Ex-DPC's driver loop.
    // Its call times still fall over the first four or five rounds.
    Workload("household-4d", Seq(household), epsilon = Tables.epsDefault("Household"), warmupRounds = 5)
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)
}

/** Deterministic seed derivation (splitmix64 finaliser). */
object Seeds {
  def mix(seed: Long, salt: Long): Long = {
    var z = seed * 0x9E3779B97F4A7C15L + salt * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }
}
