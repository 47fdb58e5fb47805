package dpcbench

import java.lang.management.ManagementFactory
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** What the Spark scheduler did during one traced call. */
final case class CallTrace(jobs: Int, tasks: Int, fanoutWallS: Double, taskRunS: Double, gcS: Double, jobSpans: Seq[(Double, Double, Int)])

/** Spark listener registered by the benchmark. Jobs submitted while the
  * driver thread carries the local property [[Property]] are attributed to
  * that call; their tasks are attributed through the jobs' stage ids.
  */
final class SparkTrace(sc: SparkContext) extends SparkListener {
  import SparkTrace._

  private final class Job(val call: String, val startMs: Long) {
    var endMs: Long = -1L
    var tasks: Int  = 0
    var runMs: Long = 0L
  }
  private val jobs       = mutable.LinkedHashMap.empty[Int, Job]
  private val stageToJob = mutable.HashMap.empty[Int, Int]
  @volatile private var lastEventNs = System.nanoTime()

  sc.addSparkListener(this)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val call = Option(e.properties).map(_.getProperty(Property)).orNull
    if (call != null) {
      jobs(e.jobId) = new Job(call, e.time)
      e.stageIds.foreach(s => stageToJob(s) = e.jobId)
    }
    lastEventNs = System.nanoTime()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobs.get(e.jobId).foreach(_.endMs = e.time)
    lastEventNs = System.nanoTime()
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (j <- stageToJob.get(e.stageId); job <- jobs.get(j)) {
      job.tasks += 1
      if (e.taskMetrics != null) job.runMs += e.taskMetrics.executorRunTime
    }
    lastEventNs = System.nanoTime()
  }

  /** Run `f` as call `id`, then wait for the listener bus to deliver the
    * call's job and task events (outside the returned wall time).
    */
  def traced[A](id: String)(f: => A): (A, Double, CallTrace) = {
    val gc0 = gcMillis()
    sc.setLocalProperty(Property, id)
    val t0 = System.nanoTime()
    val out =
      try f
      finally sc.setLocalProperty(Property, null)
    val wallS = (System.nanoTime() - t0) / 1e9
    val gcS   = (gcMillis() - gc0) / 1e3
    awaitQuiet(id)
    (out, wallS, summary(id, gcS))
  }

  private def awaitQuiet(id: String): Unit = {
    val deadline = System.nanoTime() + 5000000000L
    def pending: Boolean = synchronized(jobs.valuesIterator.exists(j => j.call == id && j.endMs < 0))
    while (System.nanoTime() < deadline && (pending || System.nanoTime() - lastEventNs < 50000000L))
      Thread.sleep(5)
  }

  private def summary(id: String, gcS: Double): CallTrace = synchronized {
    val mine = jobs.valuesIterator.filter(_.call == id).toSeq
    jobs.filterInPlace((_, j) => j.call != id)
    stageToJob.filterInPlace((_, j) => jobs.contains(j))
    CallTrace(
      jobs = mine.length,
      tasks = mine.map(_.tasks).sum,
      fanoutWallS = mine.map(j => math.max(0L, j.endMs - j.startMs)).sum / 1e3,
      taskRunS = mine.map(_.runMs).sum / 1e3,
      gcS = gcS,
      jobSpans = mine.map(j => (j.startMs.toDouble, j.endMs.toDouble, j.tasks))
    )
  }
}

object SparkTrace {
  val Property = "dpcbench.call"

  /** Total collection time of all garbage collectors so far, in ms. */
  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum
}
