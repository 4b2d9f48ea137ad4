package repro.core

import org.scalatest.funsuite.AnyFunSuite

class PatternSpec extends AnyFunSuite {

  private def ev(id: Long, t: Int, a0: Double, a1: Double = 0.0) = Event(id, id, t, a0, a1)

  test("seq factory builds positions with identity types") {
    val p = Pattern.seq(4, 100)
    assert(p.n == 4 && p.types == Vector(0, 1, 2, 3))
    assert(p.kind == PatternKind.Sequence)
  }

  test("conj factory builds a conjunction pattern") {
    val p = Pattern.conj(3, 50)
    assert(p.kind == PatternKind.Conjunction && p.n == 3)
  }

  test("duplicate types rejected") {
    intercept[IllegalArgumentException] {
      Pattern(PatternKind.Sequence, Vector(1, 1, 2), Vector.empty, 10)
    }
  }

  test("non-positive window rejected") {
    intercept[IllegalArgumentException] { Pattern.seq(2, 0) }
  }

  test("predicate referencing missing position rejected") {
    intercept[IllegalArgumentException] {
      Pattern.seq(2, 10, Vector(Predicate(0, 5, 0, PredOp.Lt)))
    }
  }

  test("self-predicate rejected") {
    intercept[IllegalArgumentException] { Predicate(1, 1, 0, PredOp.Lt) }
  }

  test("pattern without positions rejected") {
    intercept[IllegalArgumentException] { Pattern(PatternKind.Sequence, Vector.empty, Vector.empty, 10) }
  }

  test("predicate on an attribute other than a0 or a1 rejected") {
    intercept[IllegalArgumentException] { Predicate(0, 1, attr = 7, PredOp.Lt) }
  }

  test("typeToPos maps types to positions") {
    val p = Pattern(PatternKind.Sequence, Vector(7, 3, 9), Vector.empty, 10)
    assert(Vector(7, 3, 9, 0, 8).map(p.typeToPos(_)) == Vector(0, 1, 2, -1, -1))
    assert(p.typeToPos.contains(3) && !p.typeToPos.contains(4))
  }

  test("typeToPos routes negative, large and sparse type ids") {
    val rnd = new scala.util.Random(5)
    (1 to 200).foreach { _ =>
      val types = Vector.fill(1 + rnd.nextInt(9))(rnd.nextInt() >> rnd.nextInt(32)).distinct
      val p = Pattern(PatternKind.Conjunction, types, Vector.empty, 10)
      types.indices.foreach(q => assert(p.typeToPos(types(q)) == q, s"$types"))
      val others = Seq(0, -1, 1, Int.MinValue, Int.MaxValue) ++ Seq.fill(50)(rnd.nextInt())
      others.filterNot(types.contains).foreach(t => assert(p.typeToPos(t) == -1, s"$types $t"))
    }
  }

  test("predicate evaluation respects operator and attribute index") {
    val lt = Predicate(0, 1, 0, PredOp.Lt)
    val gt = Predicate(0, 1, 1, PredOp.Gt)
    assert(lt.eval(ev(0, 0, 1.0), ev(1, 1, 2.0)))
    assert(!lt.eval(ev(0, 0, 3.0), ev(1, 1, 2.0)))
    assert(gt.eval(ev(0, 0, 0, 5.0), ev(1, 1, 0, 4.0)))
    assert(!gt.eval(ev(0, 0, 0, 3.0), ev(1, 1, 0, 4.0)))
  }

  test("pairHolds orients predicates regardless of argument order") {
    val p = Pattern.seq(2, 10, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val e0 = ev(0, 0, 1.0); val e1 = ev(1, 1, 2.0)
    assert(p.pairHolds(0, 1, e0, e1))   // e0 at pos 0
    assert(p.pairHolds(1, 0, e1, e0))   // same pair, swapped call order
    assert(!p.pairHolds(0, 1, e1.copy(a0 = 9.0), e1)) // 9 < 2 fails
  }

  test("pairHolds is true for pairs without predicates") {
    val p = Pattern.seq(3, 10, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    assert(p.pairHolds(0, 2, ev(0, 0, 9.0), ev(2, 2, 1.0)))
  }

  test("pairHolds evaluates the conjunction of all pair predicates") {
    val p = Pattern.seq(2, 10, Vector(
      Predicate(0, 1, 0, PredOp.Lt), Predicate(0, 1, 1, PredOp.Gt)))
    assert(p.pairHolds(0, 1, ev(0, 0, 1.0, 5.0), ev(1, 1, 2.0, 4.0)))
    assert(!p.pairHolds(0, 1, ev(0, 0, 1.0, 3.0), ev(1, 1, 2.0, 4.0))) // a1 fails
    assert(!p.pairHolds(0, 1, ev(0, 0, 3.0, 5.0), ev(1, 1, 2.0, 4.0))) // a0 fails
  }

  test("predicatePairs normalized and sorted") {
    val p = Pattern.seq(4, 10, Vector(
      Predicate(2, 1, 0, PredOp.Lt), Predicate(0, 3, 0, PredOp.Gt)))
    assert(p.predicatePairs == Vector((0, 3), (1, 2)))
  }

  test("pairHolds is symmetric and equals the conjunction of the pair's predicates (random patterns)") {
    val rnd = new scala.util.Random(23)
    (1 to 300).foreach { _ =>
      val n = 2 + rnd.nextInt(4)
      val preds = Vector.fill(1 + rnd.nextInt(n * n)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val p = Pattern.conj(n, 10, preds)
      // Ties, both zeros and NaN, which every comparison rejects.
      val values = Vector(0.0, -0.0, 1.0, 2.0, Double.NaN)
      def draw() = values(rnd.nextInt(values.size))
      val evs = Vector.tabulate(n)(q => ev(q, q, draw(), draw()))
      // Each predicate's code, in both orientations, is its `eval`.
      preds.foreach { pr =>
        val want = pr.eval(evs(pr.i), evs(pr.j))
        assert(Predicate.holds(pr.code, evs(pr.i), evs(pr.j)) == want, s"$pr on ${evs(pr.i)}, ${evs(pr.j)}")
        assert(Predicate.holds(pr.code ^ 1, evs(pr.j), evs(pr.i)) == want, s"$pr on ${evs(pr.i)}, ${evs(pr.j)}")
      }
      for (i <- 0 until n; j <- 0 until n if i != j) {
        val expected = preds
          .filter(pr => pr.i == i && pr.j == j || pr.i == j && pr.j == i)
          .forall(pr => pr.eval(evs(pr.i), evs(pr.j)))
        assert(p.pairHolds(i, j, evs(i), evs(j)) == expected, s"$preds ($i,$j)")
        assert(p.pairHolds(j, i, evs(j), evs(i)) == expected, s"$preds ($j,$i)")
      }
    }
  }

  test("the ts codes compare timestamps in both orientations") {
    val (x, y) = (Event(0, 5, 0, 0.0, 0.0), Event(1, 7, 1, 0.0, 0.0))
    assert(Predicate.holds(Predicate.TsLt, x, y) && !Predicate.holds(Predicate.TsLt, y, x))
    assert(Predicate.holds(Predicate.TsLt ^ 1, y, x) && !Predicate.holds(Predicate.TsLt ^ 1, x, y))
    assert(!Predicate.holds(Predicate.TsLt, x, x) && !Predicate.holds(Predicate.TsLt ^ 1, x, x))
  }

  test("event attr accessor") {
    val e = ev(0, 0, 1.5, 2.5)
    assert(e.attr(0) == 1.5 && e.attr(1) == 2.5)
  }
}
