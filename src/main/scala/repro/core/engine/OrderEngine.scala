package repro.core.engine

import repro.core.Pattern
import repro.core.plan.OrderPlan

/** Order-based (lazy NFA) evaluation, after Kolchinsky et al. [33]: the
  * left-deep join tree over the plan order. The plan order is a processing
  * order, not the temporal order: the inner node over `order.take(k)` holds the
  * partial matches of that prefix, and an event of position `order(k)` extends
  * the stored prefixes while stored events of later positions extend it in
  * turn. Only events of `order(0)` count as partial matches on arrival (the
  * first prefix of `CostModel.orderCost`).
  */
final class OrderEngine(pattern: Pattern, plan: OrderPlan)
    extends Engine(pattern, plan.order.tail.map(new Leaf(_, counted = false)).foldLeft[JoinNode](
      new Leaf(plan.order.head, counted = true))(new Inner(pattern, _, _)))
