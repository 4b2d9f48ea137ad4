package repro.core.engine

import repro.core.{Event, Pattern, PatternKind}
import repro.core.plan.{InnerNode, LeafNode, TreeNode, TreePlan}
import scala.collection.mutable

/** Tree-based evaluation engine, after ZStream (Mei & Madden [38]).
  *
  * Arriving events are accumulated at their leaves; each internal node joins
  * the partial matches of its children and stores the results; matches
  * reaching the root are emitted. A new arrival propagates upward: it is
  * joined against the *stored* partial matches of each sibling subtree, so
  * every combination is produced exactly once (the older side is always the
  * stored one).
  *
  * For SEQ patterns the inner join checks the boundary condition
  * `left.maxTs < right.minTs` (children cover adjacent position ranges, and
  * each side is internally ordered by induction), the window, and all
  * cross-predicates of the node.
  */
final class TreeEngine(pattern: Pattern, val plan: TreePlan, pruneEvery: Int = 128)
    extends Engine(pattern, pruneEvery) {

  private val n = pattern.n
  private val isSeq = pattern.kind == PatternKind.Sequence

  /** Runtime mirror of a plan node with its partial-match store. */
  private final class RtNode(
      val shape: TreeNode,
      val left: RtNode,  // null for leaves
      val right: RtNode, // null for leaves
  ) extends Serializable {
    var parent: RtNode = _
    val store = new mutable.ArrayBuffer[PartialMatch]
    // Cross predicates of this node: predicate pairs spanning left × right.
    val crossPairs: Array[(Int, Int)] =
      if (left == null) Array.empty
      else pattern.predicatePairs.collect {
        case (i, j)
            if (i >= left.shape.lo && i <= left.shape.hi &&
              j >= right.shape.lo && j <= right.shape.hi) ||
              (j >= left.shape.lo && j <= left.shape.hi &&
                i >= right.shape.lo && i <= right.shape.hi) =>
          (i, j)
      }.toArray
  }

  private val leafOf = new Array[RtNode](n)
  private val root: RtNode = build(plan.root)
  private val allNodes = collect(root)

  private def build(node: TreeNode): RtNode = node match {
    case LeafNode(p) =>
      val rt = new RtNode(node, null, null)
      leafOf(p) = rt
      rt
    case InnerNode(l, r) =>
      val lrt = build(l); val rrt = build(r)
      val rt = new RtNode(node, lrt, rrt)
      lrt.parent = rt; rrt.parent = rt
      rt
  }

  private def collect(rt: RtNode): Vector[RtNode] =
    if (rt.left == null) Vector(rt)
    else collect(rt.left) ++ collect(rt.right) :+ rt

  /** Join compatibility of two partial matches at `node` (one from each
    * child; `lpm` from the left subtree).
    */
  private def joinable(node: RtNode, lpm: PartialMatch, rpm: PartialMatch): Boolean = {
    if (math.max(lpm.maxTs, rpm.maxTs) - math.min(lpm.minTs, rpm.minTs) > pattern.window)
      return false
    if (isSeq && lpm.maxTs >= rpm.minTs) return false
    var t = 0
    while (t < node.crossPairs.length) {
      val (i, j) = node.crossPairs(t)
      val ei = if (lpm.events(i) != null) lpm.events(i) else rpm.events(i)
      val ej = if (lpm.events(j) != null) lpm.events(j) else rpm.events(j)
      if (!pattern.pairHolds(i, j, ei, ej)) return false
      t += 1
    }
    true
  }

  private def merge(lpm: PartialMatch, rpm: PartialMatch): PartialMatch = {
    val arr = lpm.events.clone()
    var i = 0
    while (i < n) {
      if (rpm.events(i) != null) arr(i) = rpm.events(i)
      i += 1
    }
    new PartialMatch(arr, lpm.filled + rpm.filled,
      math.min(lpm.minTs, rpm.minTs), math.max(lpm.maxTs, rpm.maxTs))
  }

  /** Insert a fresh partial match at `node` and propagate joins upward. */
  private def insert(node: RtNode, pm: PartialMatch, out: mutable.Buffer[Array[Event]]): Unit = {
    if (node.parent == null) {
      if (node.left == null && n == 1) { out += pm.events; return } // degenerate 1-leaf plan
      if (node.left != null && pm.filled == n) { out += pm.events; return }
    }
    node.store += pm
    val parent = node.parent
    if (parent != null) {
      val fromLeft = parent.left eq node
      val sibling = if (fromLeft) parent.right else parent.left
      var i = 0
      while (i < sibling.store.length) {
        val other = sibling.store(i)
        val (lpm, rpm) = if (fromLeft) (pm, other) else (other, pm)
        if (joinable(parent, lpm, rpm)) {
          pmCount += 1
          val merged = merge(lpm, rpm)
          if (parent.parent == null) out += merged.events
          else insert(parent, merged, out)
        }
        i += 1
      }
    }
  }

  protected def onPosition(e: Event, pos: Int, out: mutable.Buffer[Array[Event]]): Unit = {
    pmCount += 1
    insert(leafOf(pos), PartialMatch.single(n, e, pos), out)
  }

  /** Partial matches older than the window cannot join any future arrival. */
  protected def prune(horizon: Long): Unit =
    allNodes.foreach(_.store.filterInPlace(_.minTs >= horizon))
}
