package repro.core.stats

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream}
import java.lang.Double.doubleToRawLongBits

import org.scalatest.funsuite.AnyFunSuite

/** DGIM exponential histogram: accuracy, expiry, space bounds, and exact
  * agreement with the deque reference [[DequeHistogram]].
  */
class ExponentialHistogramSpec extends AnyFunSuite {

  private def exactCount(arrivals: Seq[Long], now: Long, window: Long): Long =
    arrivals.count(ts => ts > now - window && ts <= now)

  /** Java serialization round trip, as Spark stores the monitor per micro-batch. */
  private def roundTrip(eh: ExponentialHistogram): ExponentialHistogram = {
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(eh)
    out.close()
    new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray))
      .readObject().asInstanceOf[ExponentialHistogram]
  }

  test("empty histogram estimates zero") {
    val eh = new ExponentialHistogram(100)
    assert(eh.estimate(50) == 0.0)
  }

  test("single arrival counted exactly") {
    val eh = new ExponentialHistogram(100)
    eh.add(10)
    assert(eh.estimate(10) == 1.0)
    assert(eh.estimate(109) == 1.0)
    assert(eh.estimate(110) == 0.0) // fully expired
  }

  test("all-expired window estimates zero") {
    val eh = new ExponentialHistogram(50)
    (1L to 40L).foreach(eh.add)
    assert(eh.estimate(1000) == 0.0)
  }

  for (k <- Seq(2, 4, 8, 16)) {
    test(s"estimate within 1/$k relative error on dense stream (k=$k)") {
      val window = 500L
      val eh = new ExponentialHistogram(window, k)
      val arrivals = (1L to 5000L)
      arrivals.foreach(eh.add)
      for (now <- Seq(1000L, 2500L, 5000L)) {
        val exact = exactCount(arrivals, now, window)
        val est = eh.estimate(now)
        assert(math.abs(est - exact) <= exact.toDouble / k + 1.0,
          s"now=$now exact=$exact est=$est")
      }
    }
  }

  for (k <- Seq(4, 8)) {
    test(s"estimate accurate on bursty random stream (k=$k)") {
      val window = 300L
      val rnd = new scala.util.Random(k)
      val eh = new ExponentialHistogram(window, k)
      var ts = 0L
      val arrivals = scala.collection.mutable.ArrayBuffer.empty[Long]
      (1 to 3000).foreach { _ =>
        ts += (if (rnd.nextDouble() < 0.2) rnd.nextInt(20).toLong + 1 else 1L)
        arrivals += ts
        eh.add(ts)
        if (arrivals.length % 500 == 0) {
          val exact = exactCount(arrivals.toSeq, ts, window)
          val est = eh.estimate(ts)
          assert(math.abs(est - exact) <= exact.toDouble / k + 1.0)
        }
      }
    }
  }

  test("bucket count stays logarithmic in window content") {
    val eh = new ExponentialHistogram(100000L, 8)
    (1L to 100000L).foreach(eh.add)
    // DGIM bound: (k+1) buckets per size, O(log N) sizes.
    assert(eh.bucketCount <= 9 * 20, s"bucketCount=${eh.bucketCount}")
  }

  for (seed <- 1 to 12) {
    test(s"property: estimate error bounded for arbitrary arrival gaps (seed=$seed)") {
      val rnd = new scala.util.Random(seed)
      val window = 200L
      val k = 8
      val eh = new ExponentialHistogram(window, k)
      var ts = 0L
      val arrivals = List.fill(400) { ts += rnd.nextInt(30) + 1; ts }
      arrivals.foreach(eh.add)
      val exact = exactCount(arrivals, ts, window)
      val est = eh.estimate(ts)
      assert(math.abs(est - exact) <= exact.toDouble / k + 1.0)
    }
  }

  test("property: estimate and bucketCount equal the deque reference, also across serialization") {
    val rnd = new scala.util.Random(6)
    for (trial <- 1 to 300) {
      val window = 1L + rnd.nextInt(5000)
      val k = 1 + rnd.nextInt(9)
      // Per trial: how often a timestamp repeats, how often it jumps by up
      // to two windows, and the largest ordinary gap.
      val repeat = rnd.nextDouble() * 0.5
      val jump = rnd.nextDouble() * 0.01
      val maxGap = 1 + rnd.nextInt(8)
      val steps = 2000
      val roundTripAt = Set(rnd.nextInt(steps), rnd.nextInt(steps))
      var eh = new ExponentialHistogram(window, k)
      val ref = new DequeHistogram(window, k)
      def check(now: Long, step: Int): Unit = {
        val (got, want) = (eh.estimate(now), ref.estimate(now))
        assert(doubleToRawLongBits(got) == doubleToRawLongBits(want) && eh.bucketCount == ref.bucketCount,
          s"trial=$trial window=$window k=$k step=$step now=$now: " +
            s"estimate $got vs $want, buckets ${eh.bucketCount} vs ${ref.bucketCount}")
      }
      var ts = 0L
      for (step <- 0 until steps) {
        if (roundTripAt(step)) eh = roundTrip(eh)
        val u = rnd.nextDouble()
        ts += (if (u < jump) rnd.nextLong(2 * window + 1) else if (u < jump + repeat) 0L else 1L + rnd.nextInt(maxGap))
        eh.add(ts)
        ref.add(ts)
        check(ts, step)
        if (rnd.nextInt(20) == 0) { // a later query; the stream resumes from it
          ts += rnd.nextLong(window + window / 2 + 1)
          check(ts, step)
        }
      }
    }
  }
}
