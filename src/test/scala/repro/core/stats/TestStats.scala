package repro.core.stats

import repro.core.{Pattern, PredOp, Predicate}

/** Statistics for planner, cost-model and decision tests. */
object TestStats {

  /** A SEQ pattern over `n` positions with a predicate on every pair, so
    * that every pair has a monitored selectivity.
    */
  def pairwise(n: Int): Pattern =
    Pattern.seq(n, 100, (for (i <- 0 until n; j <- i + 1 until n) yield Predicate(i, j, 0, PredOp.Lt)).toVector)

  /** The statistics of `pattern` with the given monitored values: its rates,
    * then its pair selectivities in `predicatePairs` order.
    */
  def of(pattern: Pattern, values: Double*): Stats =
    new Stats(pattern, values.take(pattern.n).toArray, values.drop(pattern.n).toArray)

  /** Random statistics of `pattern`: rates in [minRate, minRate + 0.9), then
    * selectivities in [0.05, 0.95), drawn in that order.
    */
  def randomStats(pattern: Pattern, rnd: scala.util.Random, minRate: Double = 0.02): Stats =
    new Stats(pattern, Array.fill(pattern.n)(minRate + rnd.nextDouble() * 0.9),
      Array.fill(pattern.predicatePairs.size)(0.05 + rnd.nextDouble() * 0.9))
}
