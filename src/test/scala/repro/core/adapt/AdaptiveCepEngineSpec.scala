package repro.core.adapt

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.algo.{Planner, PlanResult}
import repro.core.plan.OrderPlan
import repro.core.stats.{StatisticsMonitor, Stats}
import repro.data.{StockGen, TrafficGen}
import repro.harness.BenchHarness
import repro.spark.{AlgoKind, Cep, CepConfig, DecisionKind}

/** The detection-adaptation loop (Algorithm 1) with live plan switchover. */
class AdaptiveCepEngineSpec extends AnyFunSuite {

  private def collectMatches(engine: AdaptiveCepEngine, evs: Seq[Event]): Set[Vector[Long]] =
    evs.flatMap(e => engine.onEvent(e).map(_.map(_.id).toVector)).toSet

  /** Stream whose dominant type flips halfway — forces a replan. */
  private def flippingStream(n: Int, count: Int, seed: Long): Vector[Event] = {
    val half = count / 2
    (TrafficGen.events(n, half, epochs = 1, seed = seed) ++
      TrafficGen.events(n, count - half, epochs = 1, seed = seed + 1)
        .map(e => e.copy(id = e.id + half, ts = e.ts + half, etype = n - 1 - e.etype))).toVector
  }

  private val pattern3 = Pattern.seq(3, 60)

  test("static decision never replaces the plan") {
    val eng = Cep.makeEngine(pattern3, CepConfig(AlgoKind.Greedy, DecisionKind.Static))
    flippingStream(3, 4000, 1).foreach(eng.onEvent)
    assert(eng.counters.replacements == 0)
    assert(eng.counters.plannerRuns == 0)
  }

  test("unconditional decision invokes the planner on every decision period") {
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 100))
    flippingStream(3, 4000, 2).foreach(eng.onEvent)
    assert(eng.counters.plannerRuns == eng.counters.decisionEvals)
    assert(eng.counters.plannerRuns >= 35)
  }

  test("invariant decision adapts to a rate flip with few planner runs") {
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Invariant(0.0, 1), statPeriod = 100))
    flippingStream(3, 6000, 3).foreach(eng.onEvent)
    assert(eng.counters.replacements >= 1, "the flip must trigger at least one replan")
    assert(eng.counters.plannerRuns < eng.counters.decisionEvals / 2,
      "invariant method must invoke A far less often than it evaluates D")
  }

  test("invariant decision stays quiet on a stable stream") {
    val evs = TrafficGen.events(3, 6000, epochs = 1, seed = 4)
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Invariant(0.2, 1), statPeriod = 100))
    evs.foreach(eng.onEvent)
    assert(eng.counters.replacements <= 2,
      s"stable stream should need almost no replans, got ${eng.counters.replacements}")
  }

  test("plan actually changes after a flip (greedy)") {
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Invariant(0.0, 1), statPeriod = 100))
    val evs = flippingStream(3, 6000, 5)
    evs.take(3000).foreach(eng.onEvent)
    val before = eng.currentPlan
    evs.drop(3000).foreach(eng.onEvent)
    val after = eng.currentPlan
    assert(before != after, s"plan should flip: $before vs $after")
  }

  for ((algoName, algo) <- Seq("greedy" -> AlgoKind.Greedy, "zstream" -> AlgoKind.ZStream);
       (decName, dec) <- Seq(
         "unconditional" -> DecisionKind.Unconditional,
         "threshold" -> DecisionKind.Threshold(0.05),
         "invariant" -> DecisionKind.Invariant(0.0, 2))) {
    test(s"switchover exactness: $algoName + $decName emits exactly the static match set") {
      val p = Pattern.seq(3, 40, Vector(Predicate(0, 1, 0, PredOp.Lt)))
      val evs = flippingStream(3, 3000, 11)
      val adaptive = Cep.makeEngine(p, CepConfig(algo, dec, statPeriod = 50))
      val static_ = Cep.makeEngine(p, CepConfig(algo, DecisionKind.Static))
      val got = collectMatches(adaptive, evs)
      val want = collectMatches(static_, evs)
      assert(adaptive.counters.replacements > 0 || dec == DecisionKind.Threshold(0.05),
        "the adaptive run should actually switch plans at least once")
      assert(got == want,
        s"adaptive run lost/duplicated matches (${got.size} vs ${want.size})")
    }
  }

  test("match set equals brute force while adapting") {
    val p = Pattern.seq(3, 40, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val evs = flippingStream(3, 2000, 21)
    val adaptive = Cep.makeEngine(p,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 40))
    val got = collectMatches(adaptive, evs)
    assert(got == BruteForce.matches(p, evs))
  }

  /** Random SEQ and AND patterns over `ns`, eight per planner, kind and
    * length, each run adaptively (`A` every 5 events) on a stream of `count`
    * events with tied ts.
    */
  private def checkTiedTimestamps(seed: Long, ns: Seq[Int], count: Int): Unit = {
    val rnd = new scala.util.Random(seed)
    var replacements = 0L
    for (algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream); conj <- Seq(false, true); n <- ns; _ <- 1 to 8) {
      val preds = Vector.fill(rnd.nextInt(n + 1)) {
        val i = rnd.nextInt(n)
        val j = (i + 1 + rnd.nextInt(n - 1)) % n
        Predicate(i, j, rnd.nextInt(2), if (rnd.nextBoolean()) PredOp.Lt else PredOp.Gt)
      }
      val window = 3L + rnd.nextInt(8)
      val p = if (conj) Pattern.conj(n, window, preds) else Pattern.seq(n, window, preds)
      // ts advances by 0 or 1 per event, so a plan switch decided at ts t is
      // often followed by more events at t.
      var ts = 0L
      val evs = Vector.tabulate(count) { i =>
        ts += rnd.nextInt(2)
        Event(i.toLong, ts, rnd.nextInt(n + 1), rnd.nextDouble() * 10, rnd.nextDouble() * 10)
      }
      val eng = Cep.makeEngine(p, CepConfig(algo, DecisionKind.Unconditional, statPeriod = 5))
      val got = evs.flatMap(e => eng.onEvent(e).map(_.map(_.id).toVector))
      val duplicates = got.size - got.distinct.size
      assert(duplicates == 0, s"$algo $p")
      assert(got.toSet == BruteForce.matches(p, evs), s"$algo $p")
      replacements += eng.counters.replacements
    }
    assert(replacements > 0, "the runs must switch plans")
  }

  test("tied timestamps: matches across plan switches are unique and equal brute force (random SEQ/AND, n = 2-4, both planners)") {
    checkTiedTimestamps(59, 2 to 4, 400)
  }

  test("tied timestamps at n = 5: unique matches equal brute force") {
    checkTiedTimestamps(61, Seq(5), 600)
  }

  /** Java serialization round trip, as the streaming operator stores the engine per micro-batch. */
  private def roundTrip(eng: AdaptiveCepEngine): AdaptiveCepEngine = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(eng)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[AdaptiveCepEngine]
  }

  test("an engine replaced by its serialized copy every 300 events emits and counts as an uninterrupted run") {
    val ds = BenchHarness.traffic
    for (n <- Seq(4, 5); algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)) {
      val p = ds.pattern(n)
      val evs = ds.gen(n, 6000, 90017L)
      def make() = Cep.makeEngine(p, CepConfig(algo, DecisionKind.Unconditional, statPeriod = 64))
      val whole = make()
      val want = evs.map(e => whole.onEvent(e).map(_.map(_.id).toVector))
      var eng = make()
      val got = evs.zipWithIndex.map { case (e, i) =>
        if (i % 300 == 299) eng = roundTrip(eng)
        eng.onEvent(e).map(_.map(_.id).toVector)
      }
      def counters(a: AdaptiveCepEngine) = {
        val c = a.counters
        (c.events, c.matches, c.decisionEvals, c.plannerRuns, c.replacements, c.pmRetired,
          a.partialMatchesCreated, a.liveEngines, a.currentPlan)
      }
      assert(got == want, s"$algo n = $n")
      assert(counters(eng) == counters(whole), s"$algo n = $n")
      assert(whole.counters.replacements > 0 && whole.counters.matches > 0, s"$algo n = $n")
    }
  }

  /** `planner`, counting how many of its results had their DCSs built. */
  private final class CountingPlanner(planner: Planner) extends Planner {
    var builds = 0
    def generate(stats: Stats): PlanResult = {
      val r = planner.generate(stats)
      new PlanResult(r.plan, { builds += 1; r.dcs })
    }
  }

  test("only the invariant method builds DCSs, one per A run") {
    val ds = BenchHarness.traffic
    val p = ds.pattern(4)
    val evs = ds.gen(4, 6000, 5L)
    for (algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream); kind <- BenchHarness.methods(algo)) {
      val planner = new CountingPlanner(Cep.makePlanner(p, algo))
      val eng = new AdaptiveCepEngine(p, planner, Cep.makeDecision(p, kind), statPeriod = 64, initialStats = None)
      evs.foreach(eng.onEvent)
      val runs = eng.counters.plannerRuns
      kind match {
        // The initial plan is an `A` run too.
        case _: DecisionKind.Invariant => assert(planner.builds == runs + 1, s"$algo $kind")
        case _                         => assert(planner.builds == 0, s"$algo $kind")
      }
      if (kind != DecisionKind.Static) assert(runs > 0, s"$algo $kind")
    }
  }

  test("overlap window keeps two engines alive, then retires the old one") {
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 50))
    val evs = flippingStream(3, 4000, 31)
    var sawOverlap = false
    evs.foreach { e => eng.onEvent(e); if (eng.liveEngines > 1) sawOverlap = true }
    assert(sawOverlap, "switchover must keep the old engine alive for a window")
    // After a long quiet tail the chain must collapse back to a single engine
    // within one window of the last replacement.
    val tail = TrafficGen.events(3, 2000, epochs = 1, seed = 32)
      .map(e => e.copy(id = e.id + 10000, ts = e.ts + 4000))
    // Static tail: rates stable → unconditional still replans but plans equal.
    tail.foreach(eng.onEvent)
    assert(eng.liveEngines <= 2)
  }

  test("counters: overhead nanos and decision evals are populated") {
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 100))
    flippingStream(3, 3000, 41).foreach(eng.onEvent)
    val c = eng.counters
    assert(c.decisionEvals > 0 && c.plannerRuns > 0)
    assert(c.nanosInDecision > 0 && c.nanosInPlanner > 0)
    assert(c.events == 3000)
  }

  test("fruitless planner runs are counted separately from replacements") {
    val evs = StockGen.events(3, 4000, seed = 51)
    val eng = Cep.makeEngine(pattern3,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 50))
    // ts is the arrival index, so D runs at ts ≡ 49 (mod 50) and an engine
    // retires at a replacement's ts + 61 (window 60): never on a D event.
    evs.foreach { e =>
      val (plan, live, fruitless) = (eng.currentPlan, eng.liveEngines, eng.counters.fruitlessRuns)
      eng.onEvent(e)
      if (eng.counters.fruitlessRuns > fruitless) {
        assert(eng.currentPlan eq plan, s"a fruitless A run at ts ${e.ts} replaced the plan")
        assert(eng.liveEngines == live, s"a fruitless A run at ts ${e.ts} deployed an engine")
      }
    }
    assert(eng.counters.fruitlessRuns > 0, "stable stretches must yield fruitless runs")
  }

  test("a late event is rejected; an event at the last ts is accepted") {
    val eng = Cep.makeEngine(pattern3, CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional))
    Seq(Event(0, 10, 0, 0, 0), Event(1, 12, 1, 0, 0), Event(2, 12, 2, 0, 0)).foreach(eng.onEvent)
    val e = intercept[IllegalArgumentException](eng.onEvent(Event(3, 11, 0, 0, 0)))
    assert(e.getMessage.contains("ts 11") && e.getMessage.contains("ts 12"), e.getMessage)
    assert(eng.counters.events == 3)
    eng.onEvent(Event(4, 12, 0, 0, 0))
    assert(eng.counters.events == 4)
  }

  test("shifting every ts leaves the matches, counters, final plan and final snapshot unchanged (figure cells)") {
    for {
      ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)
      len <- Seq(4, 6)
      algo <- Seq(AlgoKind.Greedy, AlgoKind.ZStream)
      dk <- BenchHarness.methods(algo)
    } {
      val evs = ds.gen(len, 6000, BenchHarness.Seed)
      // The emitted ids in emission order, then everything else compared.
      def run(shift: Long): (Array[Long], Seq[Any]) = {
        val eng = Cep.makeEngine(ds.pattern(len), CepConfig(algo, dk))
        val ids = Array.newBuilder[Long]
        evs.foreach(e => eng.onEvent(e.copy(ts = e.ts + shift)).foreach(_.foreach(ev => ids += ev.id)))
        val c = eng.counters
        (ids.result(), Seq(c.plannerRuns, c.replacements, c.decisionEvals, eng.partialMatchesCreated,
          eng.currentPlan, eng.monitor.snapshot(evs.last.ts + shift).monitoredValues.toSeq))
      }
      val (ids, rest) = run(0)
      for (shift <- Seq(1000000L, 1000000000000L, -1000000L)) {
        val (shiftedIds, shiftedRest) = run(shift)
        val cell = s"${ds.name} $algo $dk, length $len, shift $shift"
        assert(java.util.Arrays.equals(shiftedIds, ids), cell)
        assert(shiftedRest == rest, cell)
      }
    }
  }

  test("engine monitor equals a default monitor over 4 windows") {
    // What a warm-up built outside the engine relies on to get the engine's
    // initial statistics.
    for (ds <- Seq(BenchHarness.traffic, BenchHarness.stocks)) {
      val p = ds.pattern(5)
      val own = Cep.makeEngine(p, CepConfig(AlgoKind.ZStream, DecisionKind.Unconditional)).monitor
      val bare = new StatisticsMonitor(p, p.window * 4)
      for (e <- ds.gen(5, 6000, 90017L)) {
        own.observe(e)
        bare.observe(e)
        if (e.ts % 500 == 499)
          assert(own.snapshot(e.ts).monitoredValues.toSeq == bare.snapshot(e.ts).monitoredValues.toSeq,
            s"${ds.name} at ts ${e.ts}")
      }
    }
  }

  test("initial plan comes from the provided initial statistics") {
    val stats = repro.core.stats.TestStats.of(pattern3, 0.7, 0.2, 0.1)
    val eng = Cep.makeEngine(pattern3, CepConfig(AlgoKind.Greedy, DecisionKind.Static),
      Some(stats))
    assert(eng.currentPlan == OrderPlan(Vector(2, 1, 0)))
  }

  test("matches counter equals emitted matches") {
    val p = Pattern.seq(2, 30)
    val eng = Cep.makeEngine(p, CepConfig(AlgoKind.Greedy, DecisionKind.Static))
    val evs = BruteForce.randomStream(2, 500, 61)
    val n = evs.flatMap(eng.onEvent).size
    assert(eng.counters.matches == n && n > 0)
  }
}
