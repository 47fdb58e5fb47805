package repro.core

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.TaskContext
import repro.SparkSpec
import scala.util.Random

/** LPT scheduling + Spark fan-out semantics. */
class ParSpec extends SparkSpec {

  test("lpt covers every item exactly once") {
    val rnd   = new Random(70)
    val costs = Array.fill(137)(rnd.nextDouble() * 10 + 0.1)
    val groups = Par.lpt(costs, 8)
    assert(groups.flatten.sorted.toSeq === (0 until 137))
  }

  test("lpt respects the 3/2 makespan bound on random instances") {
    val rnd = new Random(71)
    (1 to 10).foreach { trial =>
      val costs  = Array.fill(50 + trial * 10)(rnd.nextDouble() * 5 + 0.01)
      val b      = 2 + trial % 6
      val groups = Par.lpt(costs, b)
      val loads  = groups.map(_.map(i => costs(i)).sum)
      val opt    = math.max(costs.max, costs.sum / b) // LB on OPT
      assert(loads.max <= 1.5 * opt + 1e-9, s"trial $trial: makespan ${loads.max} vs LB $opt")
    }
  }

  test("lpt handles fewer items than buckets") {
    val groups = Par.lpt(Array(1.0, 2.0), 16)
    assert(groups.flatten.sorted.toSeq === Seq(0, 1))
  }

  test("lpt with single bucket returns everything in one group") {
    val groups = Par.lpt(Array(3.0, 1.0, 2.0), 1)
    assert(groups.length === 1 && groups.head.sorted.toSeq === Seq(0, 1, 2))
  }

  test("mapBalanced computes every item once") {
    val costs = Array.tabulate(500)(i => (i % 7 + 1).toDouble)
    val out = Par.mapBalanced[(Int, Int)](spark, costs, 8)(idxs => idxs.iterator.map(i => (i, i * i)))
    assert(out.length === 500)
    assert(out.toMap === (0 until 500).map(i => i -> i * i).toMap)
  }

  test("mapIndexed covers 0 until n") {
    val out = Par.mapIndexed[Int](spark, 1000)(idxs => idxs.iterator.map(_ + 1))
    assert(out.sorted.toSeq === (1 to 1000))
  }

  test("mapStatic covers 0 until n in contiguous ranges") {
    val out = Par.mapStatic[(Int, Int, Int, Int)](spark, 100, 7) { idxs =>
      idxs.iterator.map(i => (i, idxs.min, idxs.max, idxs.length))
    }
    assert(out.map(_._1).sorted.toSeq === (0 until 100))
    // each group must be contiguous (static ranges, no balancing)
    out.groupBy(_._2).values.foreach { g =>
      val (_, lo, hi, len) = g.head
      assert(hi - lo + 1 === len)
      assert(g.map(_._1).sorted.toSeq === (lo to hi))
    }
  }

  test("mapBalanced runs each LPT group as exactly one Spark task") {
    val rnd    = new Random(72)
    val costs  = Array.fill(300)(rnd.nextDouble() * 10 + 0.1)
    val groups = Par.lpt(costs, 8).map(_.sorted.toSeq)
    // f runs once per group; record which task (partition) ran it
    val out = Par.mapBalanced[(Int, Seq[Int])](spark, costs, 8) { idxs =>
      Iterator((TaskContext.getPartitionId(), idxs.sorted.toSeq))
    }
    assert(out.length === groups.length)
    assert(out.map(_._1).distinct.length === groups.length, s"tasks ${out.map(_._1).mkString(",")}")
    assert(out.map(_._2).toSet === groups.toSet)
  }

  test("mapStatic runs each contiguous range as exactly one Spark task") {
    val out = Par.mapStatic[(Int, Seq[Int])](spark, 100, 7) { idxs =>
      Iterator((TaskContext.getPartitionId(), idxs.toSeq))
    }
    assert(out.length === 7)
    assert(out.map(_._1).distinct.length === 7, s"tasks ${out.map(_._1).mkString(",")}")
    assert(out.map(_._2).toSet === (0 until 100).grouped(15).map(_.toSeq).toSet)
  }

  test("a kernel is shipped once: captured driver state is shared by every task (local mode)") {
    val seen = new AtomicInteger
    Par.mapIndexed[Int](spark, 1000) { idxs => idxs.foreach(_ => seen.incrementAndGet()); Iterator.empty }
    assert(seen.get === 1000)
    Par.mapBalanced[Int](spark, Array.fill(500)(1.0), 8) { idxs => idxs.foreach(_ => seen.incrementAndGet()); Iterator.empty }
    assert(seen.get === 1500)
  }

  test("a throwing kernel propagates its exception and the next call still works") {
    val e = intercept[Exception] {
      Par.mapIndexed[Int](spark, 100)(_.iterator.map(i => if (i == 42) throw new IllegalStateException("kernel failed") else i))
    }
    assert(e.getMessage.contains("kernel failed"))
    assert(Par.mapIndexed[Int](spark, 100)(_.iterator.map(identity)).sorted.toSeq === (0 until 100))
  }

  test("empty inputs yield empty outputs") {
    assert(Par.mapBalanced[Int](spark, Array.empty[Double], 4)(_.iterator.map(identity)).isEmpty)
    assert(Par.mapIndexed[Int](spark, 0)(_.iterator.map(identity)).isEmpty)
    assert(Par.mapStatic[Int](spark, 0, 4)(_.iterator.map(identity)).isEmpty)
  }
}
