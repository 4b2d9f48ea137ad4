package repro.core.stats

import scala.collection.mutable

/** Test reference for [[ExponentialHistogram]]: DGIM over one flat deque of
  * buckets, newest first, rescanned per size on every `add`. It has the same
  * constructor, `add`, `estimate` and `bucketCount`; `ExponentialHistogramSpec`
  * holds the two to bit-identical estimates.
  */
final class DequeHistogram(val window: Long, val k: Int = 8) extends Serializable {
  require(window > 0 && k >= 1)

  /** One bucket: the timestamp of its most recent element and its size
    * (a power of two). Stored newest-first.
    */
  private final class Bucket(var latest: Long, var size: Long) extends Serializable

  private val buckets = new mutable.ArrayDeque[Bucket]
  private var total: Long = 0L

  /** Record one arrival at timestamp `ts` (timestamps must be non-decreasing). */
  def add(ts: Long): Unit = {
    buckets.prepend(new Bucket(ts, 1L))
    total += 1L
    mergeCascade()
    expire(ts)
  }

  /** Merge oldest pairs whenever more than `k + 1` buckets share a size. */
  private def mergeCascade(): Unit = {
    var size = 1L
    var done = false
    while (!done) {
      // Find the oldest two buckets of `size`, counting occurrences.
      var count = 0
      var lastIdx = -1
      var secondLastIdx = -1
      var i = 0
      while (i < buckets.length) {
        if (buckets(i).size == size) {
          count += 1
          secondLastIdx = lastIdx
          lastIdx = i
        }
        i += 1
      }
      if (count > k + 1) {
        // Merge the two oldest buckets of this size into one of double size;
        // the merged bucket keeps the newer `latest` of the two (the element
        // timestamps it covers are older, so this is the standard DGIM rule).
        val newer = buckets(secondLastIdx)
        buckets.remove(lastIdx)
        newer.size = size * 2
        size *= 2 // the doubled size may now overflow its own budget
      } else done = true
    }
  }

  /** Drop buckets that lie entirely outside the window ending at `now`. */
  private def expire(now: Long): Unit = {
    while (buckets.nonEmpty && buckets.last.latest <= now - window) {
      total -= buckets.last.size
      buckets.removeLast()
    }
  }

  /** Approximate count of arrivals in `(now - window, now]`. Per DGIM the
    * oldest surviving bucket may straddle the window edge, so half its size is
    * subtracted.
    */
  def estimate(now: Long): Double = {
    expire(now)
    if (buckets.isEmpty) 0.0
    else if (buckets.length == 1) buckets.head.size.toDouble
    else total.toDouble - buckets.last.size.toDouble / 2.0
  }

  /** Number of buckets currently held (exposed for space-bound tests). */
  def bucketCount: Int = buckets.length
}
