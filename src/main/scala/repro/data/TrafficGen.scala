package repro.data

import repro.core.{Event, Lcg}

/** Synthetic stand-in for the Aarhus vehicle-traffic dataset of the paper's
  * evaluation (§5.1).
  *
  * The paper characterizes that input as: *highly skewed and stable* arrival
  * rates and selectivities, *few* on-the-fly changes, but the changes that do
  * occur are *extreme*. The generator reproduces that regime together with
  * the paper's Example-1 motivation for why no single threshold t works:
  *
  *  - event types 0..n-1 draw from a zipf-weighted categorical distribution
  *    (skew). Type 0 permanently holds the top rank — the "main gate camera
  *    A" whose stream is always the busiest;
  *  - the *busy* type's weight oscillates slowly with a large amplitude
  *    (rush hours): an absolutely-large but *plan-irrelevant* fluctuation —
  *    type 0 stays the most frequent throughout, so the optimal plan is
  *    unaffected, yet any small constant threshold keeps firing on it;
  *  - at each epoch boundary the rank assignment of the *rare* types
  *    1..n-1 rotates: relative rate changes of up to ~4× (extreme for the
  *    affected streams and decisive for the plan, which orders rare types
  *    first), while the absolute deltas stay small — so a threshold large
  *    enough to ignore the oscillation misses exactly the changes that
  *    matter (the paper's Example 1 in distilled form);
  *  - attributes a0 ("average speed") and a1 ("vehicle count") are gaussians
  *    whose per-type means are tied to the current rank assignment, so
  *    predicate selectivities shift together with the rates.
  *
  * Deterministic in (n, count, epochs, seed). Timestamps and ids are the
  * arrival index.
  */
object TrafficGen {

  private final val Alpha = 1.6      // zipf exponent of the rate skew
  private final val OscAmp = 0.35    // relative amplitude of the busy type's benign oscillation
  private final val OscPeriod = 7000 // oscillation period in events

  def weights(n: Int): Vector[Double] = {
    val raw = Vector.tabulate(n)(k => 1.0 / math.pow(k + 1.0, Alpha))
    val s = raw.sum
    raw.map(_ / s)
  }

  /** Generate `count` events with `epochs` piecewise-stationary regimes.
    *
    * @param n         number of event types (= pattern length)
    * @param count     number of events
    * @param epochs    number of regimes; boundaries rotate the rare-type ranks
    */
  def events(
      n: Int,
      count: Int,
      epochs: Int = 4,
      seed: Long = 11L,
  ): IndexedSeq[Event] = {
    require(n >= 1 && count >= 0 && epochs >= 1)
    val rnd = new Lcg(seed)
    val w = weights(n).toArray
    val epochLen = math.max(1, count / epochs)
    val out = new Array[Event](count)
    var i = 0
    while (i < count) {
      val epoch = math.min(epochs - 1, i / epochLen)
      // Rank assignment: type 0 is always rank 0; rare ranks r = 1..n-1 are
      // held by type 1 + ((r - 1 + epoch) mod (n-1)) — each boundary is an
      // extreme relative shift for every rare stream.
      def typeOfRank(r: Int): Int =
        if (r == 0 || n == 1) 0 else 1 + ((r - 1 + epoch) % (n - 1))
      // Benign oscillation of the busy type's weight (plan-irrelevant).
      val osc = 1.0 + OscAmp * math.sin(2.0 * math.Pi * i / OscPeriod)
      val w0 = math.min(0.95, w(0) * osc)
      val lowScale = if (n == 1) 0.0 else (1.0 - w0) / (1.0 - w(0))
      // Draw a rank from the oscillation-adjusted zipf weights.
      val u = rnd.nextDouble()
      var rank = 0
      var acc = w0
      while (rank < n - 1 && u >= acc) {
        rank += 1
        acc += w(rank) * lowScale
      }
      val et = typeOfRank(rank)
      // Attribute means follow the type's current rank, so the selectivities
      // of the decline predicates shift together with the rate ranks.
      val meanRank = rank
      val speed = 20.0 + 12.0 * meanRank + rnd.nextGaussian() * 18.0
      val cars = 100.0 - 10.0 * meanRank + rnd.nextGaussian() * 35.0
      out(i) = Event(i.toLong, i.toLong, et, speed, cars)
      i += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }
}
