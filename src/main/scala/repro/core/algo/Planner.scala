package repro.core.algo

import repro.core.plan.{CostModel, EvalPlan}
import repro.core.stats.Stats

/** A deciding condition `f(stat₁) < g(stat₂)` (paper §3.1): an inequality
  * whose verification led the plan-generation algorithm to include a building
  * block in the produced plan. Invariants are deciding conditions selected
  * for runtime verification by the decision function.
  */
trait InvariantCond extends Serializable {

  /** Left side `f` — the cost of the chosen alternative (smaller at creation). */
  def lhs(stats: Stats): Double

  /** Right side `g` — the cost of the rejected alternative. */
  def rhs(stats: Stats): Double

  /** Slack `g − f` at creation time; used for tightest-condition selection
    * (paper §3.1: the condition minimizing `g − f` is the invariant).
    */
  def creationSlack: Double

  /** Distance-d violation test (paper §3.4): the invariant `f < g` is
    * violated iff the sides flipped by at least the relative margin `d`,
    * i.e. `f ≥ (1+d)·g`. `d = 0` is the basic method.
    */
  def violated(stats: Stats, d: Double): Boolean = lhs(stats) >= (1.0 + d) * rhs(stats)
}

/** Result of one planner invocation: the plan plus, for each building block
  * of that plan (in invariant verification order — plan order for order-based
  * plans, leaves-to-root for tree-based plans), its deciding condition set
  * sorted tightest-first.
  *
  * The DCSs are built from what the planner recorded when `dcs` is first
  * read. Only the invariant method reads them, so `A` under any other
  * decision function costs what the uninstrumented algorithm costs.
  */
final class PlanResult(val plan: EvalPlan, buildDcs: => Vector[Vector[InvariantCond]]) {
  lazy val dcs: Vector[Vector[InvariantCond]] = buildDcs
}

/** A deterministic evaluation-plan generation algorithm `A`, instrumented to
  * expose the deciding condition sets of the plan it produced (paper §3.1).
  */
trait Planner extends Serializable {
  /** Run `A` on the given statistics. */
  def generate(stats: Stats): PlanResult

  /** Cost of a plan under the shared cost model and the given stats — used
    * by Algorithm 1's "if new_plan is better than curr_plan" test.
    */
  def cost(plan: EvalPlan, stats: Stats): Double = CostModel.planCost(plan, stats)
}
