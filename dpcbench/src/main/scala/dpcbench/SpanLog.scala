package dpcbench

import scala.collection.mutable

/** A timed interval: `parent` is the id of the span that caused it (-1 for a
  * top-level span). Times are wall-clock milliseconds since the epoch.
  */
final case class Span(id: Int, parent: Int, name: String, startMs: Double, endMs: Double, counters: Map[String, Double])

/** Spans of one run, kept in memory and written out when the run ends. */
final class SpanLog {
  private val spans = mutable.ArrayBuffer.empty[Span]

  private def nowMs: Double = System.currentTimeMillis().toDouble

  def add(parent: Int, name: String, startMs: Double, endMs: Double, counters: Map[String, Double] = Map.empty): Int =
    synchronized {
      val id = spans.length
      spans += Span(id, parent, name, startMs, endMs, counters)
      id
    }

  /** Run `f` as a top-level span; returns its value and duration in seconds. */
  def time[A](name: String)(f: => A): (A, Double) = {
    val s  = nowMs
    val t0 = System.nanoTime()
    val a  = f
    val secs = (System.nanoTime() - t0) / 1e9
    add(-1, name, s, nowMs)
    (a, secs)
  }

  def all: Seq[Span] = synchronized(spans.toList)

  def toJson: Seq[Json.Obj] = all.map { s =>
    Json.obj("id" -> s.id, "parent" -> s.parent, "name" -> s.name, "start_ms" -> s.startMs,
      "end_ms" -> s.endMs, "counters" -> s.counters)
  }
}
