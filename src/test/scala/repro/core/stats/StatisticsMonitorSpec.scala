package repro.core.stats

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Event, Pattern, PredOp, Predicate}
import repro.harness.BenchHarness

/** On-the-fly rate / selectivity estimation. */
class StatisticsMonitorSpec extends AnyFunSuite {

  private def mkStream(weights: Vector[Double], count: Int, seed: Long,
                       attrOf: (Int, scala.util.Random) => Double = (_, r) => r.nextDouble()): Vector[Event] = {
    val rnd = new scala.util.Random(seed)
    Vector.tabulate(count) { i =>
      var u = rnd.nextDouble(); var t = 0
      while (t < weights.length - 1 && u >= weights(t)) { u -= weights(t); t += 1 }
      Event(i, i, t, attrOf(t, rnd), 0.0)
    }
  }

  test("default stats: uniform rates, 0.5 selectivity on predicate pairs") {
    val p = Pattern.seq(3, 100, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val s = Stats.default(p)
    assert((0 until 3).map(s.rate) == Vector(1.0 / 3, 1.0 / 3, 1.0 / 3))
    assert(s.sel(0, 1) == 0.5 && s.sel(1, 0) == 0.5)
    assert(s.sel(0, 2) == 1.0) // no predicate on this pair
    assert(s.sel(1, 1) == 1.0)
  }

  test("monitoredValues lists rates then predicate-pair selectivities") {
    val p = Pattern.seq(3, 100, Vector(Predicate(1, 2, 0, PredOp.Lt), Predicate(0, 1, 0, PredOp.Lt)))
    val s = new Stats(p, Array(0.1, 0.2, 0.7), Array(0.3, 0.4))
    assert(s.monitoredValues.toVector == Vector(0.1, 0.2, 0.7, 0.3, 0.4))
    assert(s.sel(0, 1) == 0.3 && s.sel(2, 1) == 0.4) // pairs in `predicatePairs` order
  }

  for (seed <- Seq(1L, 2L, 3L)) {
    test(s"rate estimates track a skewed type distribution (seed=$seed)") {
      val weights = Vector(0.6, 0.3, 0.1)
      val p = Pattern.seq(3, 200)
      val mon = new StatisticsMonitor(p, statWindow = 2000)
      val evs = mkStream(weights, 6000, seed)
      evs.foreach(mon.observe)
      val s = mon.snapshot(evs.last.ts)
      (0 until 3).foreach { t =>
        assert(math.abs(s.rate(t) - weights(t)) < 0.06,
          s"type $t rate=${s.rate(t)} expected≈${weights(t)}")
      }
      assert(s.rate(0) > s.rate(1) && s.rate(1) > s.rate(2))
    }
  }

  test("rates adapt after an abrupt distribution shift") {
    val p = Pattern.seq(2, 200)
    val mon = new StatisticsMonitor(p, statWindow = 1000)
    mkStream(Vector(0.9, 0.1), 4000, 5).foreach(mon.observe)
    val before = mon.snapshot(3999)
    assert(before.rate(0) > 0.8)
    // Shift: now type 1 dominates.
    val shifted = mkStream(Vector(0.1, 0.9), 4000, 6).map(e => e.copy(id = e.id + 4000, ts = e.ts + 4000))
    shifted.foreach(mon.observe)
    val after = mon.snapshot(7999)
    assert(after.rate(1) > 0.8, s"rates after shift: $after")
  }

  test("selectivity estimate approximates the true predicate probability") {
    // attr of type 0 ~ U[0,1], type 1 ~ U[0,1]: P(a0 < b0) = 0.5.
    val p = Pattern.seq(2, 200, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val mon = new StatisticsMonitor(p, statWindow = 2000, ewmaAlpha = 0.01)
    mkStream(Vector(0.5, 0.5), 8000, 7).foreach(mon.observe)
    val s = mon.snapshot(7999)
    assert(math.abs(s.sel(0, 1) - 0.5) < 0.12, s"sel=${s.sel(0, 1)}")
  }

  test("selectivity for a near-always-true predicate approaches 1") {
    // type 0 attr ≈ 0, type 1 attr ≈ 10 → P(a0 < b0) ≈ 1.
    val p = Pattern.seq(2, 200, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val mon = new StatisticsMonitor(p, statWindow = 2000, ewmaAlpha = 0.02)
    val evs = mkStream(Vector(0.5, 0.5), 5000, 8, (t, r) => t * 10.0 + r.nextDouble())
    evs.foreach(mon.observe)
    val s = mon.snapshot(evs.last.ts)
    assert(s.sel(0, 1) > 0.9)
  }

  test("selectivity drifts when the attribute distribution drifts") {
    val p = Pattern.seq(2, 200, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val mon = new StatisticsMonitor(p, statWindow = 2000, ewmaAlpha = 0.02)
    // Phase 1: type0 lower → sel high.
    mkStream(Vector(0.5, 0.5), 4000, 9, (t, r) => t * 5.0 + r.nextDouble())
      .foreach(mon.observe)
    val hi = mon.snapshot(3999).sel(0, 1)
    // Phase 2: reversed.
    mkStream(Vector(0.5, 0.5), 4000, 10, (t, r) => (1 - t) * 5.0 + r.nextDouble())
      .map(e => e.copy(ts = e.ts + 4000)).foreach(mon.observe)
    val lo = mon.snapshot(7999).sel(0, 1)
    assert(hi > 0.8 && lo < 0.2, s"hi=$hi lo=$lo")
  }

  test("two predicates on one pair each update the pair's EWMA once per arrival") {
    val p = Pattern.seq(2, 100, Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(0, 1, 1, PredOp.Lt)))
    val mon = new StatisticsMonitor(p, statWindow = 100, ewmaAlpha = 0.5)
    mon.observe(Event(0, 0, 1, 1, 1))
    mon.observe(Event(1, 1, 0, 0, 0)) // holds: EWMA 1, then 1
    mon.observe(Event(2, 2, 0, 5, 5)) // fails: EWMA 0.5, then 0.25
    assert(mon.snapshot(2).sel(0, 1) == 0.25)
  }

  test("snapshot: unsampled pairs read 0.5, sampled selectivities are floored at 1e-4") {
    val p = Pattern.seq(3, 100, Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(1, 2, 0, PredOp.Lt)))
    val mon = new StatisticsMonitor(p, statWindow = 100)
    mon.observe(Event(0, 0, 1, 1, 0))
    mon.observe(Event(1, 1, 0, 5, 0)) // 5 < 1 fails: pair (0, 1) EWMA 0
    val s = mon.snapshot(1)
    assert(s.sel(0, 1) == 1e-4 && s.sel(1, 2) == 0.5 && s.sel(0, 2) == 1.0)
  }

  test("events of types outside the pattern are ignored") {
    val p = Pattern.seq(2, 100)
    val mon = new StatisticsMonitor(p, statWindow = 100)
    mon.observe(Event(0, 0, 99, 0, 0))
    assert(mon.observedCount == 0)
    mon.observe(Event(1, 1, 0, 0, 0))
    assert(mon.observedCount == 1)
  }

  test("snapshot clamps rates to [0,1]") {
    val p = Pattern.seq(1, 10)
    val mon = new StatisticsMonitor(p, statWindow = 10)
    (0 until 50).foreach(i => mon.observe(Event(i, i / 5, 0, 0, 0))) // 5 events per tick
    val s = mon.snapshot(9)
    assert(s.rate(0) <= 1.0 && s.rate(0) > 0.0)
  }

  test("partner draws equal java.util.Random's nextInt for every bound up to the ring capacity") {
    val p = Pattern.seq(2, 10)
    for (seed <- Seq(StatisticsMonitor.Seed, 0L, -5L, 90017L)) {
      for (bound <- 1 to StatisticsMonitor.RingCapacity) {
        val mon = new StatisticsMonitor(p, 10, seed = seed)
        val ref = new java.util.Random(seed)
        (1 to 10000).foreach(i => assert(mon.nextInt(bound) == ref.nextInt(bound), s"seed $seed bound $bound draw $i"))
      }
      // The ring bounds almost never reach the rejection loop; just above
      // 2^30 it runs on about half of the draws.
      for (bound <- Seq(1 << 30, (1 << 30) + 1)) {
        val mon = new StatisticsMonitor(p, 10, seed = seed)
        val ref = new java.util.Random(seed)
        (1 to 1000).foreach(i => assert(mon.nextInt(bound) == ref.nextInt(bound), s"seed $seed bound $bound draw $i"))
      }
      // Bounds changing from draw to draw, as the rings fill.
      val mon = new StatisticsMonitor(p, 10, seed = seed)
      val ref = new java.util.Random(seed)
      (0 until 10000).foreach { i =>
        val bound = 1 + i % StatisticsMonitor.RingCapacity
        assert(mon.nextInt(bound) == ref.nextInt(bound), s"seed $seed draw $i")
      }
    }
  }

  /** Java serialization round trip, as the streaming operator stores the monitor per micro-batch. */
  private def roundTrip(mon: StatisticsMonitor): StatisticsMonitor = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(mon)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[StatisticsMonitor]
  }

  test("a monitor replaced by its serialized copy every 300 events gives the snapshots of an uninterrupted one") {
    val ds = BenchHarness.traffic
    for (n <- Seq(4, 6)) {
      val p = ds.pattern(n)
      val evs = ds.gen(n, 6000, 77L)
      val whole = new StatisticsMonitor(p)
      var mon = new StatisticsMonitor(p)
      evs.zipWithIndex.foreach { case (e, i) =>
        if (i % 300 == 299) mon = roundTrip(mon)
        whole.observe(e)
        mon.observe(e)
        if (i % 64 == 63)
          assert(mon.snapshot(e.ts).monitoredValues.toVector == whole.snapshot(e.ts).monitoredValues.toVector,
            s"n = $n, event $i")
      }
      assert(mon.observedCount == whole.observedCount)
    }
  }
}
