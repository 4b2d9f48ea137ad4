package repro.core.algo

import repro.core.Pattern
import repro.core.plan.{CostModel, OrderPlan}
import repro.core.stats.Stats

/** Deciding condition of the greedy order planner: with the already-selected
  * `prefix`, choosing position `chosen` over position `other` required
  * `cost(chosen|prefix) < cost(other|prefix)` where
  * `cost(j|prefix) = r_j · Π_{k∈prefix} sel(k,j)` (paper §4.1). Both sides are
  * re-evaluated against fresh statistics in near-constant time (the product
  * has one factor per predicate between the prefix and the candidate).
  */
final case class GreedyCond(
    prefix: Vector[Int],
    chosen: Int,
    other: Int,
    creationSlack: Double,
) extends InvariantCond {
  def lhs(stats: Stats): Double = CostModel.greedyStepCost(prefix, chosen, stats)
  def rhs(stats: Stats): Double = CostModel.greedyStepCost(prefix, other, stats)
  override def toString: String =
    s"cost($chosen|${prefix.mkString(",")}) < cost($other|${prefix.mkString(",")})"
}

/** The greedy order-based plan generation algorithm (paper Algorithm 2, after
  * Swami [43] as used by the lazy NFA [33]): iteratively append the position
  * minimizing the marginal partial-match rate given the prefix. With no
  * predicates this reduces to ascending-arrival-rate ordering (Example 1).
  *
  * Instrumentation: each selection step is one building block ("process
  * position p at step i"); every comparison of the step winner against
  * another candidate is a block-building comparison whose deciding condition
  * enters the block's DCS (tightest-first).
  *
  * Determinism: ties are broken toward the lower position index, making `A`
  * fully deterministic as Theorems 1–2 require.
  */
final class GreedyOrderPlanner(val pattern: Pattern) extends Planner {
  def generate(stats: Stats): PlanResult = {
    var remaining = Vector.range(0, pattern.n)
    var prefix = Vector.empty[Int]
    // Per step: the prefix, the candidates, their costs and the winner's index.
    val steps = Vector.newBuilder[(Vector[Int], Vector[Int], Vector[Double], Int)]
    while (remaining.nonEmpty) {
      val costs = remaining.map(CostModel.greedyStepCost(prefix, _, stats))
      // Winner: the first strict minimum, so ties go to the lower position.
      val w = costs.indices.minBy(costs)(Ordering.Double.IeeeOrdering)
      steps += ((prefix, remaining, costs, w))
      prefix :+= remaining(w)
      remaining = remaining.patch(w, Nil, 1)
    }
    // The block's DCS: the winner against every other candidate, with the
    // slacks of the very costs it was picked by.
    new PlanResult(OrderPlan(prefix), steps.result().map { case (pre, cands, costs, w) =>
      cands.indices.filter(_ != w).toVector
        .map(k => GreedyCond(pre, cands(w), cands(k), costs(k) - costs(w)))
        .sortBy(_.creationSlack)
    })
  }
}
