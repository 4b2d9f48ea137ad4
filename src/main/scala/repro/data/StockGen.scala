package repro.data

import repro.core.Event
import scala.util.Random

/** Synthetic stand-in for the NASDAQ stock-tick dataset of the paper's
  * evaluation (§5.1).
  *
  * The paper characterizes that input as: *low skew* (initial statistic
  * values nearly identical across event types) with *highly frequent but
  * mostly minor* changes. We reproduce that regime:
  *
  *  - type weights start uniform and follow a multiplicative random walk —
  *    every `stepEvery` events each weight is multiplied by
  *    `exp(N(0, stepSigma))` and the vector renormalized (frequent, small
  *    rate changes that occasionally accumulate into rank swaps);
  *  - attribute a0 ("price diff") is a gaussian whose per-type mean can
  *    also follow a random walk (`driftSigma`). The stocks dataset of the
  *    figures (`BenchHarness.stocks`) sets `driftSigma = 0`, so its means
  *    stay at 0 and the ordering-predicate selectivities at about 0.5; the
  *    walk's draws are still taken, so the stream depends on them. The
  *    defaults below (`stepEvery` 1000, `stepSigma` 0.15, `driftSigma`
  *    0.08) are used only by tests.
  *
  * Deterministic in (params, seed). Timestamps are the arrival index.
  */
object StockGen {

  def events(
      n: Int,
      count: Int,
      stepEvery: Int = 1000,
      stepSigma: Double = 0.15,
      driftSigma: Double = 0.08,
      seed: Long = 29L,
      firstId: Long = 0L,
  ): IndexedSeq[Event] = {
    require(n >= 1 && count >= 0 && stepEvery >= 1)
    val rnd = new Random(seed)
    val w = Array.fill(n)(1.0 / n)
    val diffMean = Array.fill(n)(0.0)
    val out = new Array[Event](count)

    def renormalize(): Unit = {
      var s = 0.0; var i = 0
      while (i < n) { s += w(i); i += 1 }
      i = 0
      while (i < n) { w(i) /= s; i += 1 }
    }

    var i = 0
    while (i < count) {
      if (i > 0 && i % stepEvery == 0) {
        var t = 0
        while (t < n) {
          w(t) *= math.exp(rnd.nextGaussian() * stepSigma)
          diffMean(t) += rnd.nextGaussian() * driftSigma
          t += 1
        }
        renormalize()
      }
      var u = rnd.nextDouble()
      var et = 0
      while (et < n - 1 && u >= w(et)) { u -= w(et); et += 1 }
      val diff = diffMean(et) + rnd.nextGaussian() * 1.0
      out(i) = Event(firstId + i, i.toLong, et, diff, 0.0)
      i += 1
    }
    scala.collection.immutable.ArraySeq.unsafeWrapArray(out)
  }
}
