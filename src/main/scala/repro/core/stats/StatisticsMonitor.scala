package repro.core.stats

import repro.core.{Event, Lcg, Pattern}

/** Immutable snapshot of the monitored statistics (`Stat` in the paper): one
  * arrival rate per pattern position and one selectivity per predicate pair.
  *
  * `rate(p)` is the arrival rate of the event type at pattern position `p`,
  * expressed as a fraction of the (single, multiplexed) input stream, i.e. a
  * value in [0,1]. `sel(i, j)` is the selectivity of the conjunction of the
  * predicates between positions `i` and `j`, stored once per predicate pair at
  * `pattern.pairIndex`, so it is symmetric, and 1.0 on pairs without one. The
  * snapshot owns its arrays and never writes them.
  */
final class Stats(val pattern: Pattern, rates: Array[Double], sels: Array[Double])
    extends Serializable {
  require(rates.length == pattern.n && sels.length == pattern.predicatePairs.size)

  def n: Int = rates.length
  def rate(p: Int): Double = rates(p)
  def sel(i: Int, j: Int): Double = { val k = pattern.pairIndex(i, j); if (k < 0) 1.0 else sels(k) }

  /** Every monitored value — what a constant-threshold decision function
    * iterates over ("this function loops over all values in curr_stat",
    * paper §2.3): the rates, then the selectivities in `predicatePairs` order.
    */
  def monitoredValues: Array[Double] = {
    val all = java.util.Arrays.copyOf(rates, rates.length + sels.length)
    System.arraycopy(sels, 0, all, rates.length, sels.length)
    all
  }

  override def toString: String = s"Stats(rates ${rates.mkString(", ")}; sels ${sels.mkString(", ")})"
}

object Stats {
  /** Neutral statistics used before anything was observed (the paper's
    * "default, empty Stat"): uniform rates, selectivity 1/2 on predicate
    * pairs.
    */
  def default(pattern: Pattern): Stats =
    new Stats(pattern, Array.fill(pattern.n)(1.0 / pattern.n), Array.fill(pattern.predicatePairs.size)(0.5))
}

/** On-the-fly estimator of [[Stats]] (the "statistics collector" box of the
  * paper's Figure 2).
  *
  * Rates are maintained with one [[ExponentialHistogram]] per pattern position
  * (Datar et al. [26], as used by the paper). Selectivities are maintained
  * with one exponentially-weighted moving average per predicate pair. On each
  * arrival, every predicate touching the arriving position (in `predicates`
  * order) draws its own uniformly sampled recent partner from the other
  * position's ring buffer and moves its pair's EWMA by the joint outcome of
  * all the pair's predicates; a pair with two predicates is thus updated twice
  * per arrival. This is a constant-work-per-event approximation of the
  * sliding-window selectivity estimators the paper cites ([13]).
  *
  * @param pattern     monitored pattern
  * @param statWindow  sliding window (ticks) for rate estimation; the
  *                    adaptive loop uses `StatWindowFactor` pattern windows
  * @param ewmaAlpha   EWMA smoothing factor for selectivity estimates
  * @param seed        seed of the partner sampling: the partners are those
  *                    that `new java.util.Random(seed).nextInt` draws
  */
final class StatisticsMonitor(
    val pattern: Pattern,
    val statWindow: Long,
    val ewmaAlpha: Double = 0.02,
    seed: Long = StatisticsMonitor.Seed,
) extends Serializable {

  /** The adaptive loop's monitor: a rate window of `StatWindowFactor` pattern windows. */
  def this(pattern: Pattern) = this(pattern, pattern.window * StatisticsMonitor.StatWindowFactor)

  private val n = pattern.n

  // The state of `java.util.Random`'s 48-bit linear congruential generator
  // (`Lcg`), in a plain field: `java.util.Random` advances it by compare-and-set.
  private var lcg: Long = Lcg.seeded(seed)

  private val rateHists = Array.fill(n)(new ExponentialHistogram(statWindow))

  // Ring buffers of recent events per position, used to sample predicate pairs.
  private val rings = Array.fill(n)(new Array[Event](StatisticsMonitor.RingCapacity))
  private val ringLen = new Array[Int](n)
  private val ringNext = new Array[Int](n)

  // EWMA selectivity per predicate pair (by `pattern.pairIndex`); NaN until
  // the first sample.
  private val selEwma = Array.fill(pattern.predicatePairs.size)(Double.NaN)

  // touching(p): for each predicate touching position p, in `predicates`
  // order, the other position. Derived, so not serialized.
  @transient private lazy val touching: Array[Array[Int]] = Array.tabulate(n) { p =>
    pattern.predicates.collect { case pr if pr.i == p => pr.j; case pr if pr.j == p => pr.i }.toArray
  }

  private var observed: Long = 0L
  // The ts of the first event observed: `snapshot`'s rates are per tick
  // since then, over at most `statWindow` ticks.
  private var firstTs: Long = 0L

  /** Feed one event. Events of types outside the pattern are ignored. */
  def observe(e: Event): Unit = observe(e, pattern.typeToPos(e.etype))

  /** `observe(e)` with `pos`, the position of `e`'s type, already looked up
    * (-1 for a type outside the pattern).
    */
  private[core] def observe(e: Event, pos: Int): Unit = {
    if (pos < 0) return
    if (observed == 0L) firstTs = e.ts
    observed += 1L
    rateHists(pos).add(e.ts)
    // Selectivity sampling: one partner draw per predicate touching `pos`.
    val tab = touching(pos)
    var t = 0
    while (t < tab.length) {
      val other = tab(t)
      if (ringLen(other) > 0) {
        val partner = rings(other)(nextInt(ringLen(other)))
        val x = if (pattern.pairHolds(pos, other, e, partner)) 1.0 else 0.0
        val k = pattern.pairIndex(pos, other)
        val prev = selEwma(k)
        selEwma(k) = if (prev.isNaN) x else prev + ewmaAlpha * (x - prev)
      }
      t += 1
    }
    // Ring insert after sampling so an event never pairs with itself.
    rings(pos)(ringNext(pos)) = e
    ringNext(pos) = (ringNext(pos) + 1) % StatisticsMonitor.RingCapacity
    if (ringLen(pos) < StatisticsMonitor.RingCapacity) ringLen(pos) += 1
  }

  /** The next of the draws that `new java.util.Random(seed).nextInt(bound)`
    * would make, for `bound > 0`.
    */
  private[stats] def nextInt(bound: Int): Int = {
    var r = next31()
    val m = bound - 1
    if ((bound & m) == 0) ((bound * r.toLong) >> 31).toInt
    else {
      var u = r
      r = u % bound
      while (u - r + m < 0) { u = next31(); r = u % bound }
      r
    }
  }

  /** `java.util.Random.next(31)`. */
  private def next31(): Int = {
    lcg = Lcg.step(lcg)
    (lcg >>> 17).toInt
  }

  /** Total pattern-relevant events observed so far. */
  def observedCount: Long = observed

  /** Current statistics estimate at time `now`. */
  def snapshot(now: Long): Stats = {
    val span = math.min(statWindow, math.max(1L, now - firstTs)).toDouble
    val rates = new Array[Double](n)
    var p = 0
    while (p < n) { rates(p) = math.min(1.0, rateHists(p).estimate(now) / span); p += 1 }
    // Unsampled pairs are neutral; the floor avoids degenerate zero costs.
    val sels = selEwma.clone()
    var k = 0
    while (k < sels.length) { sels(k) = if (sels(k).isNaN) 0.5 else math.max(1e-4, sels(k)); k += 1 }
    new Stats(pattern, rates, sels)
  }
}

object StatisticsMonitor {
  /** The adaptive loop's rate window, in pattern windows. */
  final val StatWindowFactor = 4

  /** Default seed of the partner sampling, the one every adaptive loop uses. */
  final val Seed = 17L

  /** Per-position ring buffer capacity for partner sampling. */
  private[stats] final val RingCapacity = 48
}
