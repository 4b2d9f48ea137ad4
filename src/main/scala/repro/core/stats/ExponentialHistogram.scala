package repro.core.stats

import scala.annotation.tailrec

/** Sliding-window counter after Datar, Gionis, Indyk & Motwani (SICOMP 2002),
  * the algorithm the paper cites ([26]) for maintaining stream statistics over
  * sliding windows.
  *
  * Counts the number of arrivals whose timestamp lies in `(now - window, now]`
  * with relative error at most `1 / k` using `O(k log W)` buckets.
  *
  * The buckets are stored as DGIM's levels: level `j` holds the buckets of
  * size `2^j`, at most `k + 1` of them, each as the timestamp of its most
  * recent element, oldest first. Every bucket of a level is older than every
  * bucket of the levels below it, so levels `0..top` are non-empty and the
  * oldest bucket is the first of level `top`.
  *
  * @param window sliding window length in timestamp ticks
  * @param k      precision knob: at most `k + 1` buckets are kept per size;
  *               the estimate error is bounded by `1/k` of the true count
  */
final class ExponentialHistogram(val window: Long, val k: Int = 8) extends Serializable {
  require(window > 0 && k >= 1)

  private val slots = k + 2
  // Level j's buckets are `latest(j * slots + i)` for `i < count(j)`.
  private var latest = new Array[Long](0)
  private var count = new Array[Int](0)
  private var top = -1 // highest non-empty level; -1 when empty
  private var total = 0L

  /** Record one arrival at timestamp `ts` (timestamps must be non-decreasing). */
  def add(ts: Long): Unit = {
    total += 1L
    push(0, ts)
    expire(ts)
  }

  /** Append a bucket of size `2^level`. A level that reaches `k + 2` buckets
    * merges its two oldest into one bucket of the next level, which keeps the
    * newer timestamp of the two; this carries up like a binary counter.
    */
  @tailrec private def push(level: Int, ts: Long): Unit = {
    if (level == count.length) {
      latest = java.util.Arrays.copyOf(latest, (level + 1) * slots)
      count = java.util.Arrays.copyOf(count, level + 1)
    }
    latest(level * slots + count(level)) = ts
    count(level) += 1
    top = math.max(top, level)
    if (count(level) == slots) {
      val merged = latest(level * slots + 1)
      dropOldest(level, 2)
      push(level + 1, merged)
    }
  }

  private def dropOldest(level: Int, m: Int): Unit = {
    count(level) -= m
    System.arraycopy(latest, level * slots + m, latest, level * slots, count(level))
  }

  /** Drop buckets that lie entirely outside the window ending at `now`. */
  private def expire(now: Long): Unit =
    while (top >= 0 && latest(top * slots) <= now - window) {
      total -= 1L << top
      dropOldest(top, 1)
      if (count(top) == 0) top -= 1
    }

  /** Approximate count of arrivals in `(now - window, now]`. Per DGIM the
    * oldest surviving bucket may straddle the window edge, so half its size is
    * subtracted.
    */
  def estimate(now: Long): Double = {
    expire(now)
    if (top < 0) 0.0
    else if (top == 0 && count(0) == 1) 1.0 // one bucket left
    else total.toDouble - (1L << top).toDouble / 2.0
  }

  /** Number of buckets currently held (exposed for space-bound tests). */
  def bucketCount: Int = count.sum
}
