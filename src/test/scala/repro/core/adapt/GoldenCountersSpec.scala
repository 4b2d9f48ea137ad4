package repro.core.adapt

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.BenchHarness
import repro.spark.{AlgoKind, Cep, CepConfig}

/** Pins the adaptive loop's deterministic counters on small traffic and
  * stocks runs, so that a change meant to keep behaviour can show it did.
  * A change that alters these counters on purpose updates the table and
  * states why. The cells are the figures' methods (`BenchHarness.methods`),
  * so retuning a method's t or d also needs new cells.
  */
class GoldenCountersSpec extends AnyFunSuite {

  /** matches, partialMatchesCreated, plannerRuns, replacements, fruitlessRuns,
    * decisionEvals, checksPerformed.
    */
  private val golden: Map[String, Vector[Long]] = Map(
    "traffic Greedy Static" -> Vector(3759, 38470, 0, 0, 0, 78, 0),
    "traffic Greedy Unconditional" -> Vector(3759, 18036, 78, 12, 66, 78, 0),
    "traffic Greedy Threshold(0.1)" -> Vector(3759, 15620, 22, 7, 15, 78, 515),
    "traffic Greedy Invariant(0.2,1)" -> Vector(3759, 17637, 9, 9, 0, 78, 223),
    "traffic ZStream Static" -> Vector(3759, 14643, 0, 0, 0, 78, 0),
    "traffic ZStream Unconditional" -> Vector(3759, 24990, 78, 12, 66, 78, 0),
    "traffic ZStream Threshold(0.1)" -> Vector(3759, 19895, 22, 6, 16, 78, 515),
    "traffic ZStream Invariant(0.2,3)" -> Vector(3759, 19630, 6, 6, 0, 78, 222),
    "stocks Greedy Static" -> Vector(361222, 552928, 0, 0, 0, 78, 0),
    "stocks Greedy Unconditional" -> Vector(361222, 564705, 78, 11, 67, 78, 0),
    "stocks Greedy Threshold(0.1)" -> Vector(361222, 541159, 29, 5, 24, 78, 511),
    "stocks Greedy Invariant(0.2,1)" -> Vector(361222, 540725, 1, 1, 0, 78, 232),
    "stocks ZStream Static" -> Vector(361222, 509690, 0, 0, 0, 78, 0),
    "stocks ZStream Unconditional" -> Vector(361222, 611006, 78, 17, 61, 78, 0),
    "stocks ZStream Threshold(0.1)" -> Vector(361222, 588095, 29, 12, 17, 78, 511),
    "stocks ZStream Invariant(0.2,3)" -> Vector(361222, 557272, 8, 8, 0, 78, 222),
  )

  private val Len = 4
  private val Events = 5000
  private val Seed = 7L

  for {
    ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)
    algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)
    dk <- BenchHarness.methods(algo)
  } {
    val cell = s"${ds.name} $algo $dk"
    test(s"counters unchanged: $cell") {
      val eng = Cep.makeEngine(ds.pattern(Len), CepConfig(algo, dk))
      var emitted = 0L
      ds.gen(Len, Events, Seed).foreach(e => emitted += eng.onEvent(e).length)
      val c = eng.counters
      assert(emitted == c.matches)
      val got = Vector(c.matches, eng.partialMatchesCreated, c.plannerRuns, c.replacements,
        c.fruitlessRuns, c.decisionEvals, eng.decision.checksPerformed)
      assert(got == golden(cell))
    }
  }
}
