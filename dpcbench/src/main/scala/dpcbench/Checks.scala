package dpcbench

import repro.core.{DPCParams, DPCResult, Labels, Pts}

/** An input ready to be clustered: its points, its parameters (delta_min from
  * the reference's decision graph, as `Harness.prepare` derives it) and the
  * reference result with its centers and labels.
  */
final case class Prepared(
    input: InputSpec,
    pts: Pts,
    params: DPCParams,
    ref: Reference.Exact,
    refCenters: Array[Int],
    refLabels: Array[Int]
)

/** Correctness checks of one timed result against the reference. Each check
  * returns the problems it found; an empty list means the result is correct.
  */
object Checks {

  /** Relative tolerance of a distance compared with the reference's. */
  val DeltaTol = 1e-7

  private def close(a: Double, b: Double): Boolean =
    (a.isPosInfinity && b.isPosInfinity) || math.abs(a - b) <= DeltaTol * math.max(1.0, math.abs(b))

  private def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToRawLongBits(a) == java.lang.Double.doubleToRawLongBits(b)

  def check(kind: CheckKind, prep: Prepared, res: DPCResult, labels: Array[Int]): Seq[String] = {
    val n = prep.pts.n
    if (res.rho.length != n || res.depId.length != n || res.delta.length != n || labels.length != n)
      return Seq(s"result arrays do not have length n=$n")
    val problems = Seq.newBuilder[String]
    def report(what: String, bad: Seq[Int]): Unit =
      if (bad.nonEmpty) problems += s"$what at ${bad.length} point(s), first ${bad.take(3).mkString(", ")}"

    report("dependent point out of range or self", (0 until n).filter { i =>
      val q = res.depId(i); q < -1 || q >= n || q == i
    })
    report("root without delta = +inf, or +inf delta with a dependent point", (0 until n).filter { i =>
      (res.depId(i) < 0) != res.delta(i).isPosInfinity
    })
    // Every dependent point is denser, under the result's own densities
    // (points without a density, S-Approx-DPC's non-picked ones, are exempt).
    report("dependent point is not denser", (0 until n).filter { i =>
      val q = res.depId(i)
      q >= 0 && q < n && !res.rho(i).isNaN && !(res.rho(q) > res.rho(i))
    })
    /** Points whose dependent distance fails `ok(distance, delta)`. */
    def distanceMismatch(ok: (Double, Double) => Boolean): Seq[Int] = (0 until n).filter { i =>
      val q = res.depId(i)
      q >= 0 && q < n && q != i && !ok(prep.pts.dist(i, q), res.delta(i))
    }

    kind match {
      case CheckKind.Exact =>
        report("rho differs from the reference", (0 until n).filter(i => !sameBits(res.rho(i), prep.ref.rho(i))))
        report("delta differs from the reference", (0 until n).filter(i => !close(res.delta(i), prep.ref.delta(i))))
        report("delta is not the distance to the dependent point", distanceMismatch((dist, delta) => close(dist, delta)))
      case CheckKind.ExactRhoTheorem4 =>
        report("rho differs from the reference", (0 until n).filter(i => !sameBits(res.rho(i), prep.ref.rho(i))))
        // delta = dcut marks a cell-based dependent; every other delta is exact.
        val dcut = prep.params.dcut
        report("exact delta is not the distance to the dependent point",
          distanceMismatch((dist, delta) => delta == dcut || close(dist, delta)))
        val centers = Labels.centers(res, prep.params.rhoMin, prep.params.deltaMin)
        if (!centers.sameElements(prep.refCenters))
          problems += s"centers ${centers.mkString(",")} are not the Theorem-4 centers ${prep.refCenters.mkString(",")}"
      case CheckKind.PickedRho =>
        val picked = (0 until n).filter(i => !res.rho(i).isNaN)
        if (picked.isEmpty) problems += "no picked point carries a density"
        report("picked rho differs from the reference", picked.filter(i => !sameBits(res.rho(i), prep.ref.rho(i))))
        // Approximate deltas are upper bounds of the distance to the dependent point.
        report("delta below the distance to the dependent point",
          distanceMismatch((dist, delta) => dist <= delta * (1 + DeltaTol) + DeltaTol))
    }
    problems.result()
  }
}
