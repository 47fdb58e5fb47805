package repro.kdtree

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil
import repro.core.Pts
import scala.util.Random

/** kd-tree vs brute force across dimensions, sizes, and radii. */
class KdTreeSpec extends AnyFunSuite {

  private val sizes = Seq(1, 2, 17, 200, 800)
  private val dims  = Seq(1, 2, 3, 5)

  for (d <- dims; n <- sizes) {
    val pts  = TestUtil.uniformPts(n, d, domain = 100.0, seed = 100L * d + n)
    val tree = new KdTree(pts).buildAll()
    val rnd  = new Random(7L * d + n)
    val queries = Seq.fill(5)(Array.fill(d)(rnd.nextDouble() * 100.0))

    test(s"rangeCount matches brute force (d=$d, n=$n)") {
      for (q <- queries; r <- Seq(1.0, 10.0, 40.0, 200.0)) {
        assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(pts, q, r))
      }
    }

    test(s"rangeSearch is an inclusive superset with no false positives (d=$d, n=$n)") {
      for (q <- queries; r <- Seq(5.0, 25.0)) {
        val got = tree.rangeSearch(q, r).toSet
        val exp = (0 until n).filter(i => pts.dist2To(i, q) <= r * r).toSet
        assert(got === exp)
      }
    }

    test(s"nearest matches brute force (d=$d, n=$n)") {
      for (q <- queries) {
        val (gid, gd) = tree.nearest(q)
        val (bid, bd) = TestUtil.bruteNearest(pts, 0 until n, q)
        assert(math.abs(gd - bd) < 1e-9, s"dist mismatch: got ($gid,$gd) want ($bid,$bd)")
      }
    }

    test(s"nearest honours the initial bound (d=$d, n=$n)") {
      for (q <- queries) {
        val (_, bd) = TestUtil.bruteNearest(pts, 0 until n, q)
        val (id2, _) = tree.nearest(q, bound = bd * 0.5)
        // with a bound below the true NN distance nothing is returned
        if (bd > 0) assert(id2 === -1)
        val (id3, d3) = tree.nearest(q, bound = bd * 2 + 1e-6)
        assert(id3 >= 0 && math.abs(d3 - bd) < 1e-9)
      }
    }
  }

  for (d <- Seq(2, 3); n <- Seq(50, 400)) {
    test(s"incrementally built tree answers like brute force (d=$d, n=$n)") {
      val pts  = TestUtil.uniformPts(n, d, 100.0, seed = 900L + 10 * d + n)
      val tree = new KdTree(pts)
      val rnd  = new Random(1234 + n)
      val order = rnd.shuffle((0 until n).toVector)
      val inserted = scala.collection.mutable.ArrayBuffer.empty[Int]
      order.zipWithIndex.foreach { case (i, step) =>
        tree.insert(i)
        inserted += i
        if (step % 37 == 0) {
          val q = Array.fill(d)(rnd.nextDouble() * 100.0)
          val (gid, gd) = tree.nearest(q)
          val (_, bd)   = TestUtil.bruteNearest(pts, inserted.toSeq, q)
          assert(gid >= 0 && math.abs(gd - bd) < 1e-9)
          val r = 5.0 + rnd.nextDouble() * 20
          val sub = Pts.fromArrays(d, inserted.toSeq.map(pts.point))
          assert(tree.rangeCount(q, r) === TestUtil.bruteRangeCount(sub, q, r))
        }
      }
      assert(tree.size === n)
    }
  }

  test("build on subset only indexes the subset") {
    val pts  = TestUtil.uniformPts(100, 2, 50.0, seed = 5)
    val ids  = (0 until 100 by 3).toArray
    val tree = new KdTree(pts).buildFrom(ids)
    assert(tree.size === ids.length)
    val q = Array(25.0, 25.0)
    val (gid, gd) = tree.nearest(q)
    val (_, bd)   = TestUtil.bruteNearest(pts, ids.toSeq, q)
    assert(gid >= 0 && math.abs(gd - bd) < 1e-9)
  }

  test("empty tree: safe defaults") {
    val pts  = TestUtil.uniformPts(10, 2, 10.0, seed = 6)
    val tree = new KdTree(pts)
    assert(tree.size === 0)
    assert(tree.rangeCount(Array(1.0, 1.0), 5.0) === 0)
    assert(tree.rangeSearch(Array(1.0, 1.0), 5.0).isEmpty)
    assert(tree.nearest(Array(1.0, 1.0))._1 === -1)
  }

  test("duplicate coordinates are all indexed and counted") {
    val rows = Seq.fill(20)(Array(3.0, 4.0)) ++ Seq(Array(50.0, 50.0))
    val pts  = Pts.fromArrays(2, rows)
    val tree = new KdTree(pts).buildAll()
    assert(tree.rangeCount(Array(3.0, 4.0), 0.5) === 20)
    assert(tree.rangeSearch(Array(3.0, 4.0), 0.0).length === 20)
  }

  test("50k inserted duplicates stay searchable: nearest returns distance 0") {
    val pts  = Pts.fromArrays(2, Seq.fill(50000)(Array(3.0, 4.0)))
    val tree = new KdTree(pts)
    (0 until pts.n).foreach(tree.insert)
    val (id, d) = tree.nearest(Array(3.0, 4.0))
    assert(id >= 0 && d === 0.0)
    assert(tree.nearest(Array(0.0, 0.0))._2 === 5.0)
    assert(tree.rangeCount(Array(3.0, 4.0), 1.0) === 50000)
  }

  test("memBytes grows with size") {
    val pts = TestUtil.uniformPts(500, 2, 10.0, seed = 8)
    val t1  = new KdTree(pts).buildFrom((0 until 100).toArray)
    val t2  = new KdTree(pts).buildAll()
    assert(t2.memBytes > t1.memBytes)
  }
}
