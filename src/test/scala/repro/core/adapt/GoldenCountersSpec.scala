package repro.core.adapt

import java.io.{ByteArrayOutputStream, ObjectOutputStream}
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

  /** Per pattern length and cell: matches, partialMatchesCreated,
    * plannerRuns, replacements, fruitlessRuns, decisionEvals, checksPerformed.
    * Length 6 is where ZStream trees are deepest and most engines overlap.
    */
  private val golden: Map[Int, Map[String, Vector[Long]]] = Map(
    4 -> Map(
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
    ),
    6 -> Map(
      "traffic Greedy Static" -> Vector(6, 14287, 0, 0, 0, 78, 0),
      "traffic Greedy Unconditional" -> Vector(6, 5084, 78, 18, 60, 78, 0),
      "traffic Greedy Threshold(0.1)" -> Vector(6, 5948, 18, 8, 10, 78, 797),
      "traffic Greedy Invariant(0.2,1)" -> Vector(6, 5167, 6, 6, 0, 78, 375),
      "traffic ZStream Static" -> Vector(6, 9140, 0, 0, 0, 78, 0),
      "traffic ZStream Unconditional" -> Vector(6, 11213, 78, 14, 64, 78, 0),
      "traffic ZStream Threshold(0.1)" -> Vector(6, 7084, 18, 3, 15, 78, 797),
      "traffic ZStream Invariant(0.2,3)" -> Vector(6, 9216, 1, 1, 0, 78, 694),
      "stocks Greedy Static" -> Vector(54726, 228957, 0, 0, 0, 78, 0),
      "stocks Greedy Unconditional" -> Vector(54726, 333370, 78, 38, 40, 78, 0),
      "stocks Greedy Threshold(0.1)" -> Vector(54726, 297422, 20, 14, 6, 78, 809),
      "stocks Greedy Invariant(0.2,1)" -> Vector(54726, 290268, 11, 10, 1, 78, 360),
      "stocks ZStream Static" -> Vector(54726, 257510, 0, 0, 0, 78, 0),
      "stocks ZStream Unconditional" -> Vector(54726, 291789, 78, 31, 47, 78, 0),
      "stocks ZStream Threshold(0.1)" -> Vector(54726, 257040, 20, 13, 7, 78, 809),
      "stocks ZStream Invariant(0.2,3)" -> Vector(54726, 249678, 9, 9, 0, 78, 632),
    ),
  )

  /** Per pattern length and cell: an order-sensitive hash of the emitted
    * matches, `h = h * 1000003 + id` over each match's event ids by
    * position, the matches in emission order. The engines promise the same
    * matches in the same order; the counters above would not see a reorder.
    */
  private val order: Map[Int, Map[String, Long]] = Map(
    4 -> Map(
      "traffic Greedy Static" -> -7981952910261186649L,
      "traffic Greedy Unconditional" -> 5446082090250518423L,
      "traffic Greedy Threshold(0.1)" -> -6830448790333705289L,
      "traffic Greedy Invariant(0.2,1)" -> 8155672956461079575L,
      "traffic ZStream Static" -> -7981952910261186649L,
      "traffic ZStream Unconditional" -> -165849119060515401L,
      "traffic ZStream Threshold(0.1)" -> -4253124243986250361L,
      "traffic ZStream Invariant(0.2,3)" -> -5811492225816871193L,
      "stocks Greedy Static" -> -5756945224054174870L,
      "stocks Greedy Unconditional" -> -5200520639509313830L,
      "stocks Greedy Threshold(0.1)" -> -5057309583265736806L,
      "stocks Greedy Invariant(0.2,1)" -> -8227557549906476518L,
      "stocks ZStream Static" -> -5756945224054174870L,
      "stocks ZStream Unconditional" -> 6040108069646399482L,
      "stocks ZStream Threshold(0.1)" -> -4587867187569803142L,
      "stocks ZStream Invariant(0.2,3)" -> 1973920628158743962L,
    ),
    6 -> Map(
      "traffic Greedy Static" -> -4752242721089800779L,
      "traffic Greedy Unconditional" -> -4752242721089800779L,
      "traffic Greedy Threshold(0.1)" -> -4752242721089800779L,
      "traffic Greedy Invariant(0.2,1)" -> -4752242721089800779L,
      "traffic ZStream Static" -> -4752242721089800779L,
      "traffic ZStream Unconditional" -> -4752242721089800779L,
      "traffic ZStream Threshold(0.1)" -> -4752242721089800779L,
      "traffic ZStream Invariant(0.2,3)" -> -4752242721089800779L,
      "stocks Greedy Static" -> -163811472467803787L,
      "stocks Greedy Unconditional" -> 6668691311084409853L,
      "stocks Greedy Threshold(0.1)" -> 8569261077375302989L,
      "stocks Greedy Invariant(0.2,1)" -> -2999694221206605739L,
      "stocks ZStream Static" -> -163811472467803787L,
      "stocks ZStream Unconditional" -> -5670661149465983939L,
      "stocks ZStream Threshold(0.1)" -> -8251034102067741171L,
      "stocks ZStream Invariant(0.2,3)" -> 8405450387712238869L,
    ),
  )

  /** Per pattern length and cell: the length in bytes of the loop's Java
    * serialization (`ObjectOutputStream`) at the end of its run, the state a
    * streaming operator stores per key. A field or class added to the
    * serialized graph shows here, though it changes no counter.
    */
  private val stateBytes: Map[Int, Map[String, Long]] = Map(
    4 -> Map(
      "traffic Greedy Static" -> 181435L,
      "traffic Greedy Unconditional" -> 21010L,
      "traffic Greedy Threshold(0.1)" -> 53986L,
      "traffic Greedy Invariant(0.2,1)" -> 54171L,
      "traffic ZStream Static" -> 21213L,
      "traffic ZStream Unconditional" -> 46397L,
      "traffic ZStream Threshold(0.1)" -> 54196L,
      "traffic ZStream Invariant(0.2,3)" -> 54614L,
      "stocks Greedy Static" -> 166166L,
      "stocks Greedy Unconditional" -> 15143L,
      "stocks Greedy Threshold(0.1)" -> 15270L,
      "stocks Greedy Invariant(0.2,1)" -> 17437L,
      "stocks ZStream Static" -> 15346L,
      "stocks ZStream Unconditional" -> 17335L,
      "stocks ZStream Threshold(0.1)" -> 17462L,
      "stocks ZStream Invariant(0.2,3)" -> 17880L,
    ),
    6 -> Map(
      "traffic Greedy Static" -> 31433L,
      "traffic Greedy Unconditional" -> 27704L,
      "traffic Greedy Threshold(0.1)" -> 26479L,
      "traffic Greedy Invariant(0.2,1)" -> 26584L,
      "traffic ZStream Static" -> 25935L,
      "traffic ZStream Unconditional" -> 26409L,
      "traffic ZStream Threshold(0.1)" -> 25364L,
      "traffic ZStream Invariant(0.2,3)" -> 28952L,
      "stocks Greedy Static" -> 67641L,
      "stocks Greedy Unconditional" -> 72261L,
      "stocks Greedy Threshold(0.1)" -> 50457L,
      "stocks Greedy Invariant(0.2,1)" -> 56164L,
      "stocks ZStream Static" -> 20579L,
      "stocks ZStream Unconditional" -> 72525L,
      "stocks ZStream Threshold(0.1)" -> 50721L,
      "stocks ZStream Invariant(0.2,3)" -> 88020L,
    ),
  )

  private val Events = 5000
  private val Seed = 7L

  private def serializedLength(o: AnyRef): Long = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(o)
    out.close()
    bytes.size.toLong
  }

  for {
    (len, cells) <- golden
    ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)
    algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)
    dk <- BenchHarness.methods(algo)
  } {
    val cell = s"${ds.name} $algo $dk"
    // The length-4 cells were the first and keep their names.
    val suffix = if (len == 4) "" else s", length $len"
    // One run per cell, shared by its two tests.
    lazy val run = {
      val eng = Cep.makeEngine(ds.pattern(len), CepConfig(algo, dk))
      var emitted = 0L
      var hash = 0L
      ds.gen(len, Events, Seed).foreach { e =>
        val ms = eng.onEvent(e)
        emitted += ms.length
        ms.foreach(_.foreach(ev => hash = hash * 1000003L + ev.id))
      }
      val c = eng.counters
      val got = Vector(c.matches, eng.partialMatchesCreated, c.plannerRuns, c.replacements,
        c.fruitlessRuns, c.decisionEvals, eng.decision.checksPerformed)
      (emitted, got, hash, serializedLength(eng))
    }
    test(s"counters unchanged: $cell" + suffix) {
      val (emitted, got, _, _) = run
      assert(emitted == got(0))
      assert(got == cells(cell))
    }
    test(s"match order unchanged: $cell" + suffix) {
      assert(run._3 == order(len)(cell))
    }
    test(s"serialized state size unchanged: $cell" + suffix) {
      assert(run._4 == stateBytes(len)(cell))
    }
  }
}
