package repro.core.plan

import repro.core.stats.Stats

/** An evaluation plan — the scheme from which the engine's runtime structure
  * is instantiated (paper §2.1). Order-based plans drive the lazy NFA of
  * [33]; tree-based plans drive the ZStream engine of [38].
  */
sealed trait EvalPlan extends Serializable

/** Order-based plan: the pattern positions in processing (not temporal)
  * order. `order(0)` is the position whose events open partial matches.
  */
final case class OrderPlan(order: Vector[Int]) extends EvalPlan {
  require(order.distinct.size == order.size, "plan order must be a permutation of positions")
  override def toString: String = order.mkString("Order(", "→", ")")
}

/** Node of a tree-based plan. Leaves hold a single pattern position; inner
  * nodes join two adjacent position ranges (ZStream builds trees over
  * contiguous subsequences of a SEQ pattern, matrix-chain style).
  */
sealed trait TreeNode extends Serializable {
  /** Lowest pattern position covered by this subtree. */
  def lo: Int
  /** Highest pattern position covered by this subtree. */
  def hi: Int
  /** All nodes of the subtree, leaves first (bottom-up by range size). */
  def nodesBottomUp: Vector[TreeNode]
}

final case class LeafNode(pos: Int) extends TreeNode {
  val lo: Int = pos
  val hi: Int = pos
  def nodesBottomUp: Vector[TreeNode] = Vector(this)
  override def toString: String = pos.toString
}

final case class InnerNode(left: TreeNode, right: TreeNode) extends TreeNode {
  require(left.hi + 1 == right.lo, "inner node must join adjacent position ranges")
  val lo: Int = left.lo
  val hi: Int = right.hi
  def nodesBottomUp: Vector[TreeNode] =
    (left.nodesBottomUp ++ right.nodesBottomUp :+ this).sortBy(n => n.hi - n.lo)
  override def toString: String = s"($left,$right)"
}

/** Tree-based plan (ZStream). */
final case class TreePlan(root: TreeNode) extends EvalPlan {
  override def toString: String = s"Tree$root"
}

/** Cost model shared by the planners, the "is the new plan better" test of
  * Algorithm 1, and the invariant expressions (paper §4).
  */
object CostModel {

  /** Expected number of partial matches kept by an order-based plan: the sum
    * over prefixes of `Π rates × Π pairwise selectivities` (paper §4.1).
    */
  def orderCost(order: Vector[Int], stats: Stats): Double = {
    var total = 0.0
    var prod = 1.0
    var i = 0
    while (i < order.length) {
      val p = order(i)
      prod *= stats.rate(p)
      var k = 0
      while (k < i) {
        prod *= stats.sel(order(k), p)
        k += 1
      }
      total += prod
      i += 1
    }
    total
  }

  /** Marginal cost of adding position `cand` after `prefix` — the value
    * the greedy algorithm minimizes at each step (paper §4.1):
    * `r_cand × Π_{k∈prefix} sel(k, cand)`.
    */
  def greedyStepCost(prefix: Vector[Int], cand: Int, stats: Stats): Double = {
    var c = stats.rate(cand)
    var k = 0
    while (k < prefix.length) {
      c *= stats.sel(prefix(k), cand)
      k += 1
    }
    c
  }

  /** Cardinality of the contiguous position range [lo, hi]: expected number
    * of partial matches reaching the subtree root. Shape-independent:
    * `Π rates × Π pairwise sels` over the range (paper §4.2).
    */
  def rangeCardinality(lo: Int, hi: Int, stats: Stats): Double = {
    var card = 1.0
    var i = lo
    while (i <= hi) {
      card *= stats.rate(i)
      var j = i + 1
      while (j <= hi) {
        card *= stats.sel(i, j)
        j += 1
      }
      i += 1
    }
    card
  }

  /** ZStream tree cost: leaf cost is the leaf's arrival rate; an inner node
    * costs `Cost(L) + Cost(R) + Card(L⋈R)` (paper §4.2).
    */
  def treeCost(node: TreeNode, stats: Stats): Double = subtreeCost(node, stats, stats.rate)

  /** Sum of a subtree's inner-node cardinalities: its tree cost without the
    * leaf rates.
    */
  def innerCost(node: TreeNode, stats: Stats): Double = subtreeCost(node, stats, _ => 0.0)

  private def subtreeCost(node: TreeNode, stats: Stats, leafCost: Int => Double): Double =
    node match {
      case LeafNode(p) => leafCost(p)
      case InnerNode(l, r) =>
        subtreeCost(l, stats, leafCost) + subtreeCost(r, stats, leafCost) +
          rangeCardinality(node.lo, node.hi, stats)
    }

  /** Cost of an arbitrary plan under the model matching its planner. */
  def planCost(plan: EvalPlan, stats: Stats): Double = plan match {
    case OrderPlan(order) => orderCost(order, stats)
    case TreePlan(root)   => treeCost(root, stats)
  }
}
