package repro.core.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.plan.{OrderPlan, TreePlan}

/** White-box: the check lists and the live directions of every `Inner`,
  * against the positions of its children.
  */
class JoinChecksSpec extends AnyFunSuite {

  private def inners(node: JoinNode): Seq[Inner] = node match {
    case in: Inner => in +: (inners(in.left) ++ inners(in.right))
    case _         => Nil
  }

  private def triples(check: Array[Int]): Seq[(Int, Int, Int)] =
    check.grouped(3).map(t => (t(0), t(1), t(2))).toSeq

  /** Every join tree of both plan kinds for `p`. */
  private def joinTrees(p: Pattern): Seq[JoinNode] = {
    val orders = (0 until p.n).permutations.map(o => new OrderEngine(p, OrderPlan(o.toVector)).root)
    val trees = BruteForce.allTrees(0, p.n - 1).map(shape => new TreeEngine(p, TreePlan(shape)).root)
    orders.toSeq ++ trees
  }

  /** The predicate triples that an arrival at side `f` of `in` must meet, as
    * the flat codes read them: arriving op stored.
    */
  private def predicateTriples(p: Pattern, in: Inner, f: Int): Seq[(Int, Int, Int)] = {
    val arriving = (if (f == 0) in.left else in.right).positions.toSet
    val stored = (if (f == 0) in.right else in.left).positions.toSet
    p.predicates.collect {
      case pr if arriving(pr.i) && stored(pr.j) => (pr.code, pr.i, pr.j)
      case pr if arriving(pr.j) && stored(pr.i) => (pr.code ^ 1, pr.j, pr.i)
    }
  }

  private def check(p: Pattern): Unit =
    for (root <- joinTrees(p); in <- inners(root)) {
      val sides = Seq(in.left.positions.toSet, in.right.positions.toSet)
      val union = (sides(0) ++ sides(1)).toVector.sorted
      val sideOf = union.map(q => q -> (if (sides(0)(q)) 0 else 1)).toMap
      // Positions adjacent in the union but on different sides, lower first.
      val crossing = union.zip(union.tail).filter { case (a, b) => sideOf(a) != sideOf(b) }
      val liveSides = if (p.kind == PatternKind.Sequence) Seq(sideOf(union.last)) else Seq(0, 1)
      for (f <- 0 to 1) {
        val got = triples(in.checks(f))
        val ts = got.filter(_._1 >= Predicate.TsLt)
        val child = if (f == 0) in.left else in.right
        assert(child.live == liveSides.contains(f), s"$p node ${union.mkString(",")} side $f")
        if (!liveSides.contains(f)) {
          assert(in.next(f) < 0 && got.isEmpty, s"$p dead side $f")
        } else {
          assert(got.filter(_._1 < Predicate.TsLt).sorted == predicateTriples(p, in, f).sorted,
            s"$p predicates of side $f")
          if (p.kind == PatternKind.Sequence) {
            // The range proves the order at (sibling's highest, next(f)); every
            // other crossing pair keeps its triple.
            val h = sides(1 - f).max
            val nxt = sides(f).filter(_ > h).min
            assert(in.next(f) == nxt, s"$p next($f)")
            val want = crossing.filter(_ != (h, nxt)).map { case (a, b) =>
              if (sideOf(a) == f) (Predicate.TsLt, a, b) else (Predicate.TsLt ^ 1, b, a)
            }
            assert(ts.sorted == want.sorted, s"$p ts triples of side $f")
            assert(!ts.contains((Predicate.TsLt ^ 1, nxt, h)))
          } else assert(ts.isEmpty, s"$p AND has no ts triple")
        }
      }
    }

  test("a live SEQ direction leaves out only the ts triple its range proves; AND keeps every check (n = 2-6, every plan)") {
    val rnd = new scala.util.Random(41)
    for (n <- 2 to 6; conj <- Seq(false, true); _ <- 1 to 3) {
      val preds = Vector.fill(rnd.nextInt(n + 2)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      check(if (conj) Pattern.conj(n, 10, preds) else Pattern.seq(n, 10, preds))
    }
  }

  test("in a ZStream tree every left child is dead and stops its arrivals, every right child is live") {
    val p = Pattern.seq(5, 10)
    for (shape <- BruteForce.allTrees(0, 4); in <- inners(new TreeEngine(p, TreePlan(shape)).root))
      assert(!in.left.live && in.right.live && in.left.kept && !in.right.kept)
  }
}
