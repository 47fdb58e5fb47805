package repro.core

import org.apache.spark.sql.SparkSession
import scala.collection.immutable.ArraySeq
import scala.collection.mutable
import scala.reflect.ClassTag

/** Parallel-loop substrate: Spark tasks play the role of OpenMP threads.
  *
  * Every mode turns its work units into index groups and runs each group as
  * exactly one Spark task: an RDD with one partition per group
  * (`parallelize(groups, groups.length)`), mapped with `mapPartitions` and
  * collected. There is no shuffle, so the groups a mode builds are the tasks
  * Spark runs. The kernel `f` is broadcast once per call, so everything it
  * captures (points, trees, grids, arrays) is shipped once and, in `local[*]`,
  * shared by reference by every task — the paper's shared memory. Kernels
  * therefore capture their data directly. Three scheduling modes mirror the
  * paper:
  *
  *  - [[mapBalanced]] — the cost-based partitioning of §4.5: work units are
  *    packed into `buckets` groups with Graham's LPT greedy (3/2-approx of
  *    makespan), one group per Spark task.
  *  - [[mapIndexed]] — the `schedule(dynamic)` analogue of §3: unit-cost items
  *    are split into many more partitions than cores so the Spark scheduler
  *    balances dynamically.
  *  - [[mapStatic]] — deliberately *unbalanced* static contiguous ranges,
  *    reproducing LSH-DDP's hash partitioning that the paper criticizes.
  */
object Par {

  /** Graham's LPT greedy: assign `costs.length` items to `buckets` groups,
    * largest item first onto the least-loaded group. Returns the item indices
    * of each group.
    */
  def lpt(costs: Array[Double], buckets: Int): Array[Array[Int]] = {
    val b = math.max(1, math.min(buckets, math.max(1, costs.length)))
    val order = Array.tabulate(costs.length)(identity).sortBy(i => -costs(i))
    val loads = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
    (0 until b).foreach(i => loads.enqueue((0.0, i)))
    val groups = Array.fill(b)(new mutable.ArrayBuilder.ofInt)
    order.foreach { i =>
      val (load, g) = loads.dequeue()
      groups(g) += i
      loads.enqueue((load + math.max(costs(i), 1e-12), g))
    }
    groups.map(_.result())
  }

  /** LPT-balanced parallel map: each of the `buckets` index groups is processed
    * by one Spark task via `f`; all results are collected to the driver.
    */
  def mapBalanced[T: ClassTag](spark: SparkSession, costs: Array[Double], buckets: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (costs.isEmpty) return Array.empty[T]
    val groups = lpt(costs, buckets)
    runGroups(spark, groups)(f)
  }

  /** Dynamic-scheduling analogue: `n` unit-cost items, four partitions per
    * core so stragglers are absorbed by the scheduler.
    */
  def mapIndexed[T: ClassTag](spark: SparkSession, n: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (n == 0) return Array.empty[T]
    val parts  = math.min(n, spark.sparkContext.defaultParallelism * 4)
    val groups = roundRobin(n, parts)
    runGroups(spark, groups)(f)
  }

  /** Static contiguous ranges (no load balancing) — LSH-DDP's partitioning. */
  def mapStatic[T: ClassTag](spark: SparkSession, n: Int, parts: Int)(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    if (n == 0) return Array.empty[T]
    val p      = math.max(1, math.min(parts, n))
    val step   = (n + p - 1) / p
    val groups = (0 until p).map(g => ((g * step) until math.min(n, (g + 1) * step)).toArray).toArray
    runGroups(spark, groups.filter(_.nonEmpty))(f)
  }

  private def roundRobin(n: Int, parts: Int): Array[Array[Int]] = {
    val groups = Array.fill(parts)(new mutable.ArrayBuilder.ofInt)
    var i = 0
    while (i < n) { groups(i % parts) += i; i += 1 }
    groups.map(_.result()).filter(_.nonEmpty)
  }

  /** One Spark task per group; results come back in group order. `f` is
    * broadcast rather than serialized into every task, and destroyed when the
    * call returns or throws.
    */
  private def runGroups[T: ClassTag](spark: SparkSession, groups: Array[Array[Int]])(
      f: Array[Int] => Iterator[T]
  ): Array[T] = {
    val sc  = spark.sparkContext
    val bcF = sc.broadcast(f)
    try
      sc.parallelize(ArraySeq.unsafeWrapArray(groups), groups.length)
        .mapPartitions(_.flatMap(g => bcF.value(g)))
        .collect()
    finally bcF.destroy()
  }
}
