package repro.core.algo

import repro.core.Pattern
import repro.core.plan._
import repro.core.stats.Stats

/** Deciding condition of the ZStream planner: for the final plan's node over
  * [lo, hi], the chosen split was cheaper than an alternative split of the
  * same range (`Cost(T₁) < Cost(T₂)`, paper §4.2). `chosen` and `other` are
  * the two candidate trees for the range.
  *
  * The subtree *shapes* are frozen at plan-creation time (the DP is never
  * re-run inside `D` — the core of the paper's §4.2 recursion-elimination),
  * but the cost is re-evaluated *live* against current statistics over those
  * frozen shapes.
  *
  * Deviation from the paper, surfaced by our property tests: §4.2 proposes
  * freezing subtree costs/cardinalities as numeric constants, arguing drift
  * inside a subtree is caught by an earlier (leaves-to-root) invariant. That
  * argument has a blind spot: two-leaf subtrees have no alternative splits,
  * hence *empty* DCSs and no earlier invariant, so a rate swap confined to
  * them is invisible to fully-frozen conditions (a guaranteed false
  * negative). Live evaluation over frozen shapes costs O(range²) lookups —
  * constant for a fixed pattern size — and restores the Theorem 1 guarantee:
  * if `cost(chosen shapes) ≥ cost(other shapes)` under current statistics,
  * the DP cannot reproduce the current plan unchanged (it either prefers the
  * other split or improves a subtree — both change the plan).
  *
  * Each side is the split's cost *minus the terms common to every split of
  * the same range* (the leaf rates and the root cardinality): the sum of its
  * two subtrees' inner-node cardinalities. Both sides subtract identical
  * quantities, so the d = 0 comparison is unchanged — but the distance-d
  * margin now applies to the genuinely differing part. Comparing full tree
  * costs instead would dilute any relative margin below usefulness: the
  * shared additive mass dominates both sides, so even an extreme rate shift
  * moves their ratio by only a few percent (observed empirically on the
  * traffic regime).
  */
final case class TreeCond(chosen: InnerNode, other: InnerNode, creationSlack: Double)
    extends InvariantCond {
  def lhs(stats: Stats): Double = splitCost(chosen, stats)
  def rhs(stats: Stats): Double = splitCost(other, stats)

  private def splitCost(split: InnerNode, stats: Stats): Double =
    CostModel.innerCost(split.left, stats) + CostModel.innerCost(split.right, stats)

  override def toString: String = s"cost$chosen < cost$other"
}

/** The ZStream dynamic-programming algorithm for tree-based plan generation
  * (paper Algorithm 3, after Mei & Madden [38]): matrix-chain DP over
  * contiguous position ranges of a SEQ pattern. `Cost(T) = Cost(L) + Cost(R)
  * + Card(T)`; range cardinality is shape-independent.
  *
  * Instrumentation (paper §4.2): each internal node of the *final* tree is a
  * building block; a comparison between the costs of two candidate trees for
  * the node's range is a block-building comparison, so the node's DCS holds
  * `cost(chosen split) < cost(other split)` for every alternative split of
  * its range. Because only one condition per block may be kept (K = 1), the
  * paper recommends the K-invariant method for this algorithm — the DCSs are
  * returned in full, sorted tightest-first, and the decision function trims
  * them to K.
  *
  * Determinism: the split with the strictly lower cost wins; ties break
  * toward the leftmost split point.
  *
  * The DP runs over flat arrays and allocates only the final tree; the
  * alternative trees of the DCSs are built when they are read.
  */
final class ZStreamPlanner(val pattern: Pattern) extends Planner {
  def generate(stats: Stats): PlanResult = {
    val n = pattern.n
    // DP state of the range [lo, hi] at lo * n + hi: its cardinality, the
    // cost of its best tree, and that tree's split s (its left subtree is
    // [lo, s]).
    val card = new Array[Double](n * n)
    val cost = new Array[Double](n * n)
    val best = new Array[Int](n * n)
    def splitCost(lo: Int, s: Int, hi: Int): Double = cost(lo * n + s) + cost((s + 1) * n + hi) + card(lo * n + hi)
    for (p <- 0 until n) cost(p * n + p) = stats.rate(p)
    for (len <- 2 to n; lo <- 0 to n - len) {
      val hi = lo + len - 1
      val r = lo * n + hi
      card(r) = CostModel.rangeCardinality(lo, hi, stats)
      // The first strict minimum wins, so ties go to the leftmost split.
      cost(r) = splitCost(lo, lo, hi)
      best(r) = lo
      for (s <- lo + 1 until hi) {
        val c = splitCost(lo, s, hi)
        if (c < cost(r)) { cost(r) = c; best(r) = s }
      }
    }
    def tree(lo: Int, hi: Int): TreeNode =
      if (lo == hi) LeafNode(lo) else InnerNode(tree(lo, best(lo * n + hi)), tree(best(lo * n + hi) + 1, hi))
    val root = tree(0, n - 1)

    // DCS per internal node of the final plan, leaves-to-root, with the
    // slacks of the split costs the DP compared for the node's range.
    new PlanResult(TreePlan(root), root.nodesBottomUp.collect { case node: InnerNode =>
      val (lo, hi, chosen) = (node.lo, node.hi, node.left.hi)
      (lo until hi).filter(_ != chosen).toVector
        .map(s => TreeCond(node, InnerNode(tree(lo, s), tree(s + 1, hi)), splitCost(lo, s, hi) - cost(lo * n + hi)))
        .sortBy(_.creationSlack)
    })
  }
}
