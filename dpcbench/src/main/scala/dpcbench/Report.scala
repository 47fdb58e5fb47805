package dpcbench

/** The benchmark's metric catalogue and its output format. */
object Report {

  /** A metric name with its unit. */
  final case class Metric(name: String, unit: String)

  /** Printed by every untraced run (`--trace 0`), on every workload. */
  val endToEnd: Seq[Metric] =
    Metric("setup_s", "s") +:
      Algos.all.map(a => Metric(s"${a.key}_s", "s")) ++:
      Seq(Metric("approx_dpc_rand_index", "ratio"), Metric("s_approx_dpc_rand_index", "ratio"))

  /** Per-call layer metrics of every algorithm, from the Spark listener, the
    * GC beans and the algorithm's own result.
    */
  val perAlgo: Seq[Metric] = Seq(
    Metric("call_s", "s"),
    Metric("fanout_wall_s", "s"),
    Metric("driver_s", "s"),
    Metric("fanout_share", "ratio"),
    Metric("driver_share", "ratio"),
    Metric("spark_jobs", "count"),
    Metric("spark_tasks", "count"),
    Metric("task_run_s", "s"),
    Metric("rho_phase_s", "s"),
    Metric("delta_phase_s", "s"),
    Metric("gc_s", "s"),
    Metric("mem_mb", "MB")
  )

  /** Printed by every traced run (`--trace 1`), on every workload. */
  val perLayer: Seq[Metric] =
    Algos.all.flatMap(a => perAlgo.map(m => m.copy(name = s"${a.key}.${m.name}"))) ++ Seq(
      Metric("approx_dpc.undecided", "count"),
      Metric("s_approx_dpc.roots", "count"),
      Metric("par.noop_fanout_s", "s"),
      Metric("kdtree.build_s", "s"),
      Metric("kdtree.range_count_us", "us"),
      Metric("kdtree.insert_nearest_s", "s"),
      Metric("grid.build_s", "s"),
      Metric("grid.cells", "count"),
      Metric("labels.assign_s", "s"),
      Metric("data.generate_s", "s"),
      Metric("pts.from_df_s", "s"),
      Metric("spark.session_s", "s"),
      Metric("bench.reference_s", "s"),
      Metric("bench.warmup_s", "s"),
      Metric("trace.overhead_frac", "ratio")
    )

  /** The result line: the last line a run prints on standard output. Every
    * metric of `catalogue` must have a value.
    */
  def resultLine(correct: Boolean, attempted: Int, failed: Int, catalogue: Seq[Metric], values: Map[String, Double]): String = {
    val missing = catalogue.map(_.name).filterNot(values.contains)
    require(missing.isEmpty, s"no value for metric(s) ${missing.mkString(", ")}")
    val metrics = catalogue.map(m => m.name -> Json.obj("value" -> values(m.name), "unit" -> m.unit))
    Json.render(Json.obj("correct" -> correct, "attempted" -> attempted, "failed" -> failed, "metrics" -> Json.obj(metrics: _*)))
  }
}

/** Statistics over timing samples. */
object Stats {
  /** Median; NaN (printed as null) when there are no samples. */
  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return Double.NaN
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** The highest percentile with at least ten samples beyond it, as
    * `(percentile, value)`; `None` below eleven samples.
    */
  def tail(xs: Seq[Double]): Option[(Double, Double)] =
    if (xs.length < 11) None
    else {
      val s    = xs.sorted
      val rank = s.length - 11 // ten samples lie above index `rank`
      Some((100.0 * (rank + 1) / s.length, s(rank)))
    }
}

/** Minimal JSON rendering of maps, sequences, strings, numbers and booleans. */
object Json {
  final case class Obj(fields: Seq[(String, Any)])

  def obj(fields: (String, Any)*): Obj = Obj(fields)

  def render(v: Any): String = v match {
    case null            => "null"
    case Obj(fields)     => fields.map { case (k, x) => quote(k) + ":" + render(x) }.mkString("{", ",", "}")
    case m: Map[_, _]    => render(Obj(m.toSeq.map { case (k, x) => k.toString -> x }))
    case s: String       => quote(s)
    case b: Boolean      => b.toString
    case d: Double       => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int          => n.toString
    case n: Long         => n.toString
    case o: Option[_]    => o.map(render).getOrElse("null")
    case xs: Iterable[_] => xs.map(render).mkString("[", ",", "]")
    case other           => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    b += '"'
    b.toString
  }
}
