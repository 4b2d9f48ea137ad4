package repro.core

import org.scalatest.funsuite.AnyFunSuite

class BruteForceSpec extends AnyFunSuite {

  test("pruned enumeration equals exhaustive enumeration (random SEQ/AND patterns and streams)") {
    val rnd = new scala.util.Random(41)
    (1 to 200).foreach { _ =>
      val n = 2 + rnd.nextInt(3)
      val preds = Vector.fill(rnd.nextInt(n + 1)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val window = 1L + rnd.nextInt(12)
      val p =
        if (rnd.nextBoolean()) Pattern.seq(n, window, preds) else Pattern.conj(n, window, preds)
      // Timestamps repeat and arrive out of order; one type is outside the pattern.
      val count = 1 + rnd.nextInt(40)
      val evs = Vector.tabulate(count) { id =>
        Event(id.toLong, rnd.nextInt(count).toLong, rnd.nextInt(n + 1),
          rnd.nextInt(4).toDouble, rnd.nextInt(4).toDouble)
      }
      assert(BruteForce.matches(p, evs) == BruteForce.exhaustiveMatches(p, evs), s"$p $evs")
    }
  }
}
