package dpcbench

import java.io.{File, PrintWriter}
import java.lang.management.ManagementFactory
import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.control.NonFatal

/** Benchmark driver: one workload in one `local[nproc]` Spark JVM, as a closed
  * loop with a single client issuing clustering calls (`DPCAlgorithm.run` +
  * `Labels.assign`) one after another.
  *
  * {{{
  * Main --workload <name> --seed <n> --seconds <s> --trace <0|1> [--work <dir>]
  * }}}
  *
  * The last line on standard output is the result:
  * `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
  * with the end-to-end metrics (`--trace 0`) or the per-layer ones
  * (`--trace 1`). Diagnostics go to standard error.
  */
object Main {

  final case class Cli(workload: Workload, seed: Long, seconds: Int, trace: Boolean, work: File)

  /** Input-generation repetitions of the set-up; `setup_s` takes their median. */
  val SetupReps = 3

  /** Replays per substrate in a traced run. */
  val LayerReps = 3

  /** Least number of timed rounds. */
  val MinRounds = 2

  def parse(args: Array[String]): Either[String, Cli] = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.get(k).toRight(s"missing --$k")
    for {
      w    <- need("workload")
      wl   <- Workloads.byName(w).toRight(s"unknown workload '$w' (one of ${Workloads.all.map(_.name).mkString(", ")})")
      seed <- need("seed").flatMap(s => s.toLongOption.toRight(s"--seed must be an integer, got '$s'"))
      secs <- need("seconds").flatMap(s => s.toIntOption.filter(_ > 0).toRight(s"--seconds must be a positive integer, got '$s'"))
      tr   <- need("trace").flatMap(s => Map("0" -> false, "1" -> true).get(s).toRight(s"--trace must be 0 or 1, got '$s'"))
      _    <- if (args.length % 2 == 0 && kv.size * 2 == args.length) Right(()) else Left(s"bad arguments: ${args.mkString(" ")}")
    } yield Cli(wl, seed, secs, tr, new File(kv.getOrElse("work", ".dpcbench-work")))
  }

  def main(args: Array[String]): Unit = {
    val cli = parse(args) match {
      case Right(c) => c
      case Left(err) =>
        Console.err.println(s"dpcbench: $err")
        sys.exit(2)
    }
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val spark      = session(cli.work)
    val sessionS   = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val code =
      try { run(spark, cli, sessionS); 0 }
      catch {
        case NonFatal(e) =>
          Console.err.println(s"dpcbench: run failed: $e")
          e.printStackTrace()
          1
      } finally spark.stop()
    sys.exit(code)
  }

  def session(work: File): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[${Runtime.getRuntime.availableProcessors}]")
      .appName("dpcbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(work, "spark-local").getAbsolutePath)
      .config("spark.sql.warehouse.dir", new File(work, "spark-warehouse").getAbsolutePath)
      // As the repository's test session (SparkSpec).
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  /** The pinned run environment, printed with every result. */
  def environment(spark: SparkSession): Json.Obj = {
    val rt = ManagementFactory.getRuntimeMXBean
    Json.obj(
      "nproc"          -> Runtime.getRuntime.availableProcessors,
      "master"         -> spark.sparkContext.master,
      "heap_max_mb"    -> Runtime.getRuntime.maxMemory / (1 << 20),
      "jvm_args"       -> rt.getInputArguments.asScala.filter(_.startsWith("-X")).toSeq,
      "jvm"            -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "gc"             -> ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getName).toSeq,
      "spark_version"  -> spark.version,
      "scala_version"  -> scala.util.Properties.versionNumberString,
      "default_parallelism" -> spark.sparkContext.defaultParallelism
    )
  }

  /** One timed clustering call and what its checks found. */
  final case class Call(wallS: Double, result: Option[DPCResult], labels: Array[Int], problems: Seq[String], trace: Option[CallTrace])

  /** Run `algo` on `prep` once and check the result; a throw counts as a
    * failed call, never as an abort.
    */
  def attempt(spark: SparkSession, algo: Algo, prep: Prepared, tracer: Option[SparkTrace], callId: String): Call = {
    System.gc() // each call starts from a collected heap
    def body(): (DPCResult, Array[Int]) = {
      val res = algo.impl.run(spark, prep.pts, prep.params)
      (res, Labels.assign(res, prep.params.rhoMin, prep.params.deltaMin))
    }
    try {
      val ((res, labels), wallS, trace) = tracer match {
        case Some(t) =>
          val (out, w, ct) = t.traced(callId)(body())
          (out, w, Some(ct))
        case None =>
          val t0  = System.nanoTime()
          val out = body()
          (out, (System.nanoTime() - t0) / 1e9, None)
      }
      Call(wallS, Some(res), labels, Checks.check(algo.check, prep, res, labels), trace)
    } catch {
      case NonFatal(e) => Call(Double.NaN, None, null, Seq(s"threw $e"), None)
    }
  }

  /** Generate the inputs (`SetupReps` times, checking they repeat exactly),
    * compute the reference results and the clustering parameters.
    */
  def prepare(spark: SparkSession, cli: Cli, spans: SpanLog): (Seq[Prepared], Map[String, Double]) = {
    val wl = cli.workload
    val genS, fromDfS = mutable.ArrayBuffer.empty[Double]
    var pts: Seq[Pts] = Nil
    (0 until SetupReps).foreach { _ =>
      var g, f = 0.0
      val ps = wl.inputs.zipWithIndex.map { case (in, idx) =>
        val layout   = Seeds.mix(Workloads.LayoutSeed, idx.toLong)
        val (df, gs) = spans.time(s"data.generate ${in.label}")(in.generate(spark, layout, Seeds.mix(cli.seed, idx.toLong)))
        val (p, fs)  = spans.time(s"pts.from_df ${in.label}")(Pts.fromDF(df))
        g += gs
        f += fs
        p
      }
      if (pts.nonEmpty && !pts.zip(ps).forall { case (a, b) => a.data.sameElements(b.data) && a.ids.sameElements(b.ids) })
        throw new IllegalStateException("the same seed generated different points")
      pts = ps
      genS += g
      fromDfS += f
    }
    var refS = 0.0
    val preps = wl.inputs.zip(pts).map { case (in, p) =>
      val (prep, secs) = spans.time(s"bench.reference ${in.label}") {
        val ref      = Reference.compute(p, in.spec.dcut)
        val deltaMin = DecisionGraph.deltaMinForK(ref.asResult, in.rhoMin, in.spec.k, in.spec.dcut)
        val params   = DPCParams(dcut = in.spec.dcut, rhoMin = in.rhoMin, deltaMin = deltaMin, epsilon = wl.epsilon)
        Prepared(in, p, params, ref,
          Labels.centers(ref.asResult, params.rhoMin, params.deltaMin),
          Labels.assign(ref.asResult, params.rhoMin, params.deltaMin))
      }
      refS += secs
      prep
    }
    (preps, Map(
      "data.generate_s"   -> Stats.median(genS.toSeq),
      "pts.from_df_s"     -> Stats.median(fromDfS.toSeq),
      "bench.reference_s" -> refS))
  }

  /** Discarded calls that load classes, JIT-compile the kernels and warm
    * Spark at the inputs' own sizes: the workload's `warmupRounds` rounds of
    * every algorithm on every input. A count of rounds, not a time, so that
    * the JIT sees the same number of calls on a slower or busier host.
    */
  def warmUp(spark: SparkSession, cli: Cli, preps: Seq[Prepared]): Unit =
    (0 until cli.workload.warmupRounds).foreach { _ =>
      for (algo <- Algos.all; p <- preps) algo.impl.run(spark, p.pts, p.params)
    }

  /** Per-round values of one algorithm, summed over the workload's inputs. */
  final class Round(val calls: Seq[Call]) {
    def complete: Boolean = calls.forall(_.result.isDefined)
    def wallS: Double     = calls.map(_.wallS).sum
  }

  def run(spark: SparkSession, cli: Cli, sessionS: Double): Unit = {
    val wl    = cli.workload
    val spans = new SpanLog
    val env   = environment(spark)
    Console.err.println(s"dpcbench: ${wl.name} seed=${cli.seed} seconds=${cli.seconds} trace=${if (cli.trace) 1 else 0}")

    val (preps, setupParts) = prepare(spark, cli, spans)
    val warmupS             = spans.time("bench.warmup")(warmUp(spark, cli, preps))._2
    val setupS              = sessionS + setupParts("data.generate_s") + setupParts("pts.from_df_s") +
      setupParts("bench.reference_s") + warmupS
    val layers = if (cli.trace) Layers.replay(spark, preps, LayerReps, spans) else Map.empty[String, Double]

    // The closed loop: rounds of every algorithm on every input while the
    // next round, as long as the longest so far, still ends within the time;
    // at least `MinRounds` so that a median exists. A traced run alternates
    // untraced and traced rounds.
    val tracer    = if (cli.trace) Some(new SparkTrace(spark.sparkContext)) else None
    val untraced  = mutable.LinkedHashMap(Algos.all.map(_ -> mutable.ArrayBuffer.empty[Round]): _*)
    val traced    = mutable.LinkedHashMap(Algos.all.map(_ -> mutable.ArrayBuffer.empty[Round]): _*)
    val problems  = mutable.ArrayBuffer.empty[String]
    var attempted = 0
    var failed    = 0
    val deadline  = System.nanoTime() + cli.seconds * 1000000000L
    var round     = 0
    var longestNs = 0L
    while (round < MinRounds || System.nanoTime() + longestNs <= deadline) {
      val roundStart = System.nanoTime()
      val withTrace  = if (cli.trace && round % 2 == 1) tracer else None
      Algos.all.foreach { algo =>
        val calls = preps.map { p =>
          val id   = s"${algo.key}/${p.input.label}/r$round"
          val s    = System.currentTimeMillis().toDouble
          val call = attempt(spark, algo, p, withTrace, id)
          val span = spans.add(-1, s"call $id", s, System.currentTimeMillis().toDouble,
            call.trace.map(t => Map("spark_jobs" -> t.jobs.toDouble, "spark_tasks" -> t.tasks.toDouble,
              "task_run_s" -> t.taskRunS, "gc_s" -> t.gcS)).getOrElse(Map.empty))
          call.trace.foreach(_.jobSpans.foreach { case (js, je, tasks) =>
            spans.add(span, "spark.job", js, je, Map("spark_tasks" -> tasks.toDouble))
          })
          attempted += 1
          if (call.problems.nonEmpty) {
            failed += 1
            problems ++= call.problems.map(m => s"$id: $m")
            call.problems.foreach(m => Console.err.println(s"dpcbench: FAILED $id: $m"))
          }
          call
        }
        (if (withTrace.isDefined) traced else untraced)(algo) += new Round(calls)
      }
      longestNs = math.max(longestNs, System.nanoTime() - roundStart)
      round += 1
    }

    def wallSamples(rs: Seq[Round]): Seq[Double] = rs.filter(_.complete).map(_.wallS)
    def lowestRandIndex(algo: Algo): Double = {
      val ris = (untraced(algo) ++ traced(algo)).flatMap(_.calls.zip(preps)).collect {
        case (c, p) if c.result.isDefined => RandIndex.of(p.refLabels, c.labels)
      }
      if (ris.isEmpty) Double.NaN else ris.min
    }

    val values: Map[String, Double] =
      if (!cli.trace) {
        Map("setup_s" -> setupS) ++
          Algos.all.map(a => s"${a.key}_s" -> Stats.median(wallSamples(untraced(a).toSeq))) ++
          Seq(Algos.approxDpc, Algos.sApproxDpc).map(a => s"${a.key}_rand_index" -> lowestRandIndex(a))
      } else {
        val perAlgo = Algos.all.flatMap { a =>
          val rs = traced(a).filter(_.complete).toSeq
          def med(f: Round => Double): Double = Stats.median(rs.map(f))
          def sum(r: Round)(f: Call => Double): Double = r.calls.map(f).sum
          def fan(r: Round): Double = sum(r)(_.trace.get.fanoutWallS)
          Seq(
            "call_s"        -> med(_.wallS),
            "fanout_wall_s" -> med(fan),
            "driver_s"      -> med(r => r.wallS - fan(r)),
            "fanout_share"  -> med(r => fan(r) / r.wallS),
            "driver_share"  -> med(r => 1 - fan(r) / r.wallS),
            "spark_jobs"    -> med(sum(_)(_.trace.get.jobs.toDouble)),
            "spark_tasks"   -> med(sum(_)(_.trace.get.tasks.toDouble)),
            "task_run_s"    -> med(sum(_)(_.trace.get.taskRunS)),
            "rho_phase_s"   -> med(sum(_)(_.result.get.times.densityMs / 1e3)),
            "delta_phase_s" -> med(sum(_)(_.result.get.times.dependentMs / 1e3)),
            "gc_s"          -> med(sum(_)(_.trace.get.gcS)),
            "mem_mb"        -> med(_.calls.map(_.result.get.memBytes / 1048576.0).max)
          ).map { case (k, v) => s"${a.key}.$k" -> v }
        }.toMap
        // Decisions read off the results: Approx-DPC's undecided points get an
        // exact delta (not dcut); S-Approx-DPC's roots are picked points whose
        // delta is not the phase-1 bound (1 + eps) * dcut.
        def fromLastResults(a: Algo)(count: (DPCResult, Prepared) => Int): Double =
          traced(a).reverseIterator.find(_.complete)
            .map(_.calls.map(_.result.get).zip(preps).map(count.tupled).sum.toDouble).getOrElse(Double.NaN)
        val undecided = fromLastResults(Algos.approxDpc)((r, p) => r.delta.count(_ != p.params.dcut))
        val roots = fromLastResults(Algos.sApproxDpc) { (r, p) =>
          val bound = (1 + p.params.epsilon) * p.params.dcut
          r.rho.indices.count(i => !r.rho(i).isNaN && r.delta(i) != bound)
        }
        val overhead = Algos.all.map(a => Stats.median(wallSamples(traced(a).toSeq))).sum /
          Algos.all.map(a => Stats.median(wallSamples(untraced(a).toSeq))).sum - 1
        perAlgo ++ layers ++ setupParts ++ Map(
          "approx_dpc.undecided" -> undecided,
          "s_approx_dpc.roots"   -> roots,
          "spark.session_s"      -> sessionS,
          "bench.warmup_s"       -> warmupS,
          "trace.overhead_frac"  -> overhead)
      }

    val catalogue = if (cli.trace) Report.perLayer else Report.endToEnd
    val detail = Json.obj(
      "workload" -> wl.name, "seed" -> cli.seed, "seconds" -> cli.seconds, "trace" -> cli.trace,
      "rounds" -> round, "setup" -> (setupParts ++ Map("spark.session_s" -> sessionS, "bench.warmup_s" -> warmupS)),
      "samples_s" -> Algos.all.map(a => a.key -> wallSamples(untraced(a).toSeq)).toMap,
      "tail_s" -> Algos.all.map(a => a.key -> Stats.tail(wallSamples(untraced(a).toSeq)).map {
        case (pct, v) => Json.obj("percentile" -> pct, "value" -> v, "samples" -> wallSamples(untraced(a).toSeq).length)
      }).toMap,
      "problems" -> problems.take(20).toSeq)
    if (cli.trace) {
      cli.work.mkdirs()
      val file = new File(cli.work, s"trace-${wl.name}-seed${cli.seed}.json")
      val out  = new PrintWriter(file, "UTF-8")
      try out.println(Json.render(Json.obj("env" -> env, "detail" -> detail,
        "metrics" -> catalogue.map(m => m.name -> values(m.name)).toMap, "spans" -> spans.toJson)))
      finally out.close()
      Console.err.println(s"dpcbench: trace written to $file")
    }
    println(Json.render(Json.obj("env" -> env)))
    println(Json.render(Json.obj("detail" -> detail)))
    println(Report.resultLine(failed == 0, attempted, failed, catalogue, values))
  }
}
