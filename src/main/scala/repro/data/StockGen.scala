package repro.data

import repro.core.{Event, Lcg}

/** Synthetic stand-in for the NASDAQ stock-tick dataset of the paper's
  * evaluation (§5.1).
  *
  * The paper characterizes that input as: *low skew* (initial statistic
  * values nearly identical across event types) with *highly frequent but
  * mostly minor* changes. We reproduce that regime:
  *
  *  - type weights start uniform and follow a multiplicative random walk —
  *    every `StepEvery` (400) events each weight is multiplied by
  *    `exp(N(0, StepSigma))` with `StepSigma` 0.10, and the vector is
  *    renormalized (frequent, small rate changes that occasionally
  *    accumulate into rank swaps);
  *  - attribute a0 ("price diff") is a standard gaussian for every type, so
  *    the ordering-predicate selectivities stay at about 0.5.
  *
  * Deterministic in (n, count, seed). Timestamps and ids are the arrival
  * index.
  */
object StockGen {

  private final val StepEvery = 400
  private final val StepSigma = 0.10

  def events(n: Int, count: Int, seed: Long): IndexedSeq[Event] = {
    require(n >= 1 && count >= 0)
    val rnd = new Lcg(seed)
    val w = Array.fill(n)(1.0 / n)
    val out = new Array[Event](count)

    def renormalize(): Unit = {
      var s = 0.0; var i = 0
      while (i < n) { s += w(i); i += 1 }
      i = 0
      while (i < n) { w(i) /= s; i += 1 }
    }

    var i = 0
    while (i < count) {
      if (i > 0 && i % StepEvery == 0) {
        var t = 0
        while (t < n) {
          w(t) *= math.exp(rnd.nextGaussian() * StepSigma)
          rnd.nextGaussian() // unused, but dropping it would change every stream after the first step
          t += 1
        }
        renormalize()
      }
      var u = rnd.nextDouble()
      var et = 0
      while (et < n - 1 && u >= w(et)) { u -= w(et); et += 1 }
      out(i) = Event(i.toLong, i.toLong, et, rnd.nextGaussian(), 0.0)
      i += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }
}
