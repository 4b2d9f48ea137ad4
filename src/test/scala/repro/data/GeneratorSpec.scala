package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Event
import repro.harness.BenchHarness

class GeneratorSpec extends AnyFunSuite {

  test("traffic: deterministic in seed") {
    val a = TrafficGen.events(4, 5000, seed = 1)
    val b = TrafficGen.events(4, 5000, seed = 1)
    val c = TrafficGen.events(4, 5000, seed = 2)
    assert(a == b)
    assert(a != c)
  }

  test("traffic: timestamps are the arrival index") {
    val evs = TrafficGen.events(3, 100, seed = 3)
    assert(evs.zipWithIndex.forall { case (e, i) => e.ts == i && e.id == i })
  }

  test("traffic: zipf weights are normalized and skewed") {
    val w = TrafficGen.weights(5)
    assert(math.abs(w.sum - 1.0) < 1e-9)
    assert(w == w.sorted.reverse)
    assert(w.head / w.last > 5.0)
  }

  test("traffic: within an epoch the type distribution is skewed roughly as zipf") {
    val evs = TrafficGen.events(4, 40000, epochs = 1, seed = 4)
    val freq = evs.groupBy(_.etype).view.mapValues(_.size.toDouble / evs.size).toMap
    val w = TrafficGen.weights(4)
    (0 until 4).foreach { t =>
      assert(math.abs(freq(t) - w(t)) < 0.05, s"type $t freq=${freq(t)} expected≈${w(t)}")
    }
  }

  test("traffic: the busy type oscillates with large amplitude but keeps its top rank") {
    val evs = TrafficGen.events(4, 28000, epochs = 1, seed = 5)
    def freq(s: Seq[repro.core.Event], t: Int) = s.count(_.etype == t).toDouble / s.size
    val quarters = evs.grouped(3500).toVector // half-period chunks
    val f0 = quarters.map(q => freq(q, 0))
    // Large absolute swing of the dominant rate (threshold-method bait)...
    assert(f0.max - f0.min > 0.12, s"oscillation swing=${f0.max - f0.min}")
    // ...but type 0 stays the most frequent in every chunk (plan-irrelevant).
    quarters.foreach { q =>
      val fs = (0 until 4).map(freq(q, _))
      assert(fs(0) == fs.max)
    }
  }

  test("traffic: epoch boundaries rotate the rare-type ranks (extreme relative shift)") {
    val evs = TrafficGen.events(4, 40000, epochs = 2, seed = 5)
    val (first, second) = evs.splitAt(20000)
    def freq(s: Seq[repro.core.Event], t: Int) = s.count(_.etype == t).toDouble / s.size
    // Type 0 stays dominant in both epochs…
    assert(freq(first, 0) > 0.4 && freq(second, 0) > 0.4)
    // …while a rare type's rate shifts by an extreme relative factor
    // (rank 1 ↔ rank 3 under the rotation: ≈3× in either direction).
    val shifts = (1 to 3).map(t => freq(first, t) / freq(second, t))
    assert(shifts.max > 2.0, s"shifts=$shifts")  // some rare stream drops ~3×
    assert(shifts.min < 0.7, s"shifts=$shifts")  // some rare stream grows substantially
  }

  test("traffic: attribute means shift with epochs (selectivities move)") {
    val evs = TrafficGen.events(3, 30000, epochs = 2, seed = 6)
    val (first, second) = evs.splitAt(15000)
    def meanSpeed(s: Seq[repro.core.Event], t: Int) = {
      val xs = s.filter(_.etype == t).map(_.a0); xs.sum / xs.size
    }
    // A rare type's speed mean moves between epochs (its rank changed).
    assert(math.abs(meanSpeed(first, 1) - meanSpeed(second, 1)) > 5.0)
  }

  test("stocks: deterministic in seed") {
    val a = StockGen.events(4, 5000, seed = 1)
    val b = StockGen.events(4, 5000, seed = 1)
    assert(a == b)
    assert(a != StockGen.events(4, 5000, seed = 9))
  }

  test("stocks: near-uniform initial type distribution") {
    val evs = StockGen.events(5, 1000, seed = 2) // two walk steps
    val freq = evs.groupBy(_.etype).view.mapValues(_.size.toDouble / evs.size).toMap
    (0 until 5).foreach(t => assert(math.abs(freq(t) - 0.2) < 0.06))
  }

  test("stocks: the random walk changes rates gradually, not abruptly") {
    val evs = StockGen.events(4, 60000, seed = 3)
    val chunks = evs.grouped(10000).toVector
    def freq(s: Seq[repro.core.Event], t: Int) = s.count(_.etype == t).toDouble / s.size
    // Adjacent chunks differ by small amounts per type...
    chunks.sliding(2).foreach { pair =>
      (0 until 4).foreach { t =>
        assert(math.abs(freq(pair(0), t) - freq(pair(1), t)) < 0.25)
      }
    }
    // ...but the walk does move the distribution over the whole run.
    val drift = (0 until 4).map(t => math.abs(freq(chunks.head, t) - freq(chunks.last, t))).max
    assert(drift > 0.02, s"drift=$drift")
  }

  /** Order-sensitive FNV-1a digest over every field of every event. */
  private def digest(evs: Seq[Event]): Long =
    evs.foldLeft(0xcbf29ce484222325L) { (h0, e) =>
      Seq(e.id, e.ts, e.etype.toLong, java.lang.Double.doubleToRawLongBits(e.a0),
        java.lang.Double.doubleToRawLongBits(e.a1)).foldLeft(h0)((h, x) => (h ^ x) * 0x100000001b3L)
    }

  test("the figures' streams are pinned: seed 7, 20k events, lengths 3-6") {
    // These are the figures' inputs: a generator change that moves them
    // moves every number in EXPERIMENTS.md.
    val pinned = Map(
      "traffic" -> Seq(461141420174464875L, 7689768554667332914L, 530006949932745273L, -7596651290748242905L),
      "stocks" -> Seq(-9016311835362902437L, -1996051802586015334L, 3854569901290975916L, 6390725397398271512L),
    )
    for (ds <- Seq(BenchHarness.traffic, BenchHarness.stocks); (n, want) <- (3 to 6).zip(pinned(ds.name)))
      assert(digest(ds.gen(n, 20000, 7L)) == want, s"${ds.name} n = $n")
  }

  test("the benchmark's streams are pinned: seed 90017, traffic len 6 and stocks len 5") {
    // perfbench times the loop on these inputs: a generator change that
    // moves them changes the workload being timed.
    assert(digest(BenchHarness.traffic.gen(6, 802000, 90017L)) == -6664171252686079809L)
    assert(digest(BenchHarness.stocks.gen(5, 100000, 90017L)) == 6979671221647645539L)
  }
}
