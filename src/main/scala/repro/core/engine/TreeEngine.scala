package repro.core.engine

import repro.core.Pattern
import repro.core.plan.{InnerNode, LeafNode, TreeNode, TreePlan}

/** Tree-based evaluation, after ZStream (Mei & Madden [38]): the join tree is
  * the plan tree, and every arrival counts as a partial match (the leaf rates
  * of `CostModel.treeCost`).
  */
final class TreeEngine(pattern: Pattern, plan: TreePlan)
    extends Engine(pattern, TreeEngine.joinTree(pattern, plan.root))

private[engine] object TreeEngine {
  private[engine] def joinTree(pattern: Pattern, node: TreeNode): JoinNode = node match {
    case LeafNode(p)     => new Leaf(p, counted = true)
    case InnerNode(l, r) => new Inner(pattern, joinTree(pattern, l), joinTree(pattern, r))
  }
}
