package repro.core.engine

import repro.core.{Event, Item, Pattern, PatternKind, Predicate}
import scala.collection.mutable

/** A partial match: events indexed by pattern position (`null` at positions
  * it does not cover), plus cached min/max timestamps for O(1) window checks.
  */
private[engine] final class PartialMatch(val events: Array[Event], val minTs: Long, val maxTs: Long)
    extends Item { def at(p: Int): Event = events(p) }

/** Node of an engine's binary join tree. Its store holds the (partial)
  * matches over its `positions` in creation order, so in `maxTs` order: a
  * leaf's events, an inner node's `PartialMatch`es. It stores them only if
  * `kept`, which its parent sets iff its join reads them.
  */
private[engine] sealed abstract class JoinNode extends Serializable {
  val positions: Array[Int]
  var parent: Inner = _
  var kept = false
  val store = new mutable.ArrayBuffer[Item]

  /** Drop stored items older than `horizon`: no future arrival joins them. */
  def prune(horizon: Long): Unit = store.filterInPlace(_.minTs >= horizon)
}

/** Leaf: the raw events of one position; its arrivals count as partial
  * matches iff `counted`.
  */
private[engine] final class Leaf(val pos: Int, val counted: Boolean) extends JoinNode {
  val positions: Array[Int] = Array(pos)
}

/** Inner node: joins an item of one child with the stored items of the other
  * and appends the partial matches to its store.
  */
private[engine] final class Inner(pattern: Pattern, val left: JoinNode, val right: JoinNode)
    extends JoinNode {
  import Inner.firstMaxTsAtLeast
  left.parent = this
  right.parent = this
  // Copied by hand: `Array.concat`'s generic path cost about 15% of engine construction.
  val positions: Array[Int] = {
    val ps = java.util.Arrays.copyOf(left.positions, left.positions.length + right.positions.length)
    System.arraycopy(right.positions, 0, ps, left.positions.length, right.positions.length)
    ps
  }
  private val seq = pattern.kind == PatternKind.Sequence

  // next(f): for an item arriving at the left (f = 0) or right (f = 1) child,
  // -1 if it can never match, else (for SEQ) the arriving position just after
  // the sibling's highest one. A SEQ match needs the child's highest position
  // above the sibling's: an arriving item holds the event being processed at
  // its highest position, and every stored ts is at most that event's.
  private val next = new Array[Int](2)

  // checks(f): what an item arriving at the left (f = 0) or right (f = 1)
  // child must meet with a stored item of the other, as flat (code, arriving
  // position, stored position) triples: `Predicate.holds(code, arriving
  // event, stored event)` must hold. For SEQ, the positions adjacent in the
  // union but on different sides must be in ts order (each side is ordered
  // already, so these order the union); then every predicate on a pair
  // spanning the children must hold. Each comparison enters both directions,
  // oriented arriving op stored. The same pass over the positions fills `next`.
  private val checks: Array[Array[Int]] = {
    val side = new Array[Int](pattern.n) // 0 left, 1 right, -1 neither
    java.util.Arrays.fill(side, -1)
    var k = 0
    while (k < positions.length) { side(positions(k)) = if (k < left.positions.length) 0 else 1; k += 1 }
    val flat = Array(new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofInt)
    def spanning(i: Int, j: Int, code: Int): Unit =
      if (side(i) >= 0 && side(j) >= 0 && side(i) != side(j)) {
        flat(side(i)) += code += i += j
        flat(side(j)) += code ^ 1 += j += i
      }
    var prev = -1
    var p = 0
    while (p < pattern.n) {
      if (side(p) >= 0) {
        if (prev >= 0 && side(prev) != side(p)) next(side(p)) = p
        if (prev >= 0 && seq) spanning(prev, p, Predicate.TsLt)
        prev = p
      }
      p += 1
    }
    if (seq) next(1 - side(prev)) = -1
    // Plain loops: a zip with a closure per pair made each deploy about 1.5 µs slower.
    var q = 0
    while (q < pattern.predicatePairs.length) {
      val ij = pattern.predicatePairs(q)
      val codes = pattern.pairCodes(q)
      var c = 0
      while (c < codes.length) { spanning(ij._1, ij._2, codes(c)); c += 1 }
      q += 1
    }
    // A dead direction never reads its checks.
    Array(if (next(0) < 0) Array.emptyIntArray else flat(0).result(),
      if (next(1) < 0) Array.emptyIntArray else flat(1).result())
  }
  // A child's store is read only by the arrivals at its sibling.
  left.kept = next(1) >= 0
  right.kept = next(0) >= 0

  /** Joins `item`, just arrived at child `from`, with the stored items of the
    * other child that can match it, and appends the partial matches to the store.
    */
  def join(from: JoinNode, item: Item): Unit = {
    val f = if (from eq left) 0 else 1
    if (next(f) < 0) return
    val other = if (f == 0) right else left
    val check = checks(f)
    // A SEQ match needs the stored item's maxTs (its ts at the sibling's
    // highest position) within the window of item.maxTs and below the ts at next(f).
    var m = 0
    var end = other.store.length
    if (seq) {
      m = firstMaxTsAtLeast(other.store, 0, item.maxTs - pattern.window)
      end = firstMaxTsAtLeast(other.store, m, item.at(next(f)).ts)
    }
    while (m < end) {
      val stored = other.store(m)
      val lo = math.min(item.minTs, stored.minTs)
      val hi = math.max(item.maxTs, stored.maxTs)
      var ok = hi - lo <= pattern.window
      var t = 0
      while (ok && t < check.length) {
        ok = Predicate.holds(check(t), item.at(check(t + 1)), stored.at(check(t + 2)))
        t += 3
      }
      if (ok) {
        val evs = new Array[Event](pattern.n)
        from.positions.foreach(p => evs(p) = item.at(p))
        other.positions.foreach(p => evs(p) = stored.at(p))
        store += new PartialMatch(evs, lo, hi)
      }
      m += 1
    }
  }
}

private[engine] object Inner {
  /** The first index from `lo` on of `store`, sorted by `maxTs`, whose item's maxTs is at least `ts`. */
  private def firstMaxTsAtLeast(store: mutable.ArrayBuffer[Item], lo: Int, ts: Long): Int = {
    var l = lo
    var h = store.length
    while (l < h) {
      val mid = (l + h) >>> 1
      if (store(mid).maxTs < ts) l = mid + 1 else h = mid
    }
    l
  }
}

/** A pattern evaluation engine: a binary join tree over the pattern positions
  * (ZStream [38]; an order plan of the lazy NFA [33] is the left-deep tree
  * over its processing order). Events must be fed in non-decreasing timestamp
  * order, and an earlier one is rejected; full matches (events by pattern
  * position) are appended to `out`.
  *
  * An arriving event is joined at its leaf's parent with the stored items of
  * the leaf's sibling; each result is joined in turn at the grandparent with
  * the stored items of the parent's sibling, up to the root, which emits. A
  * node stores its arrivals only if `kept`. The older side of every join is a
  * stored one, so each combination is produced exactly once. Every
  * `PruneEvery` pattern events the stores are pruned at horizon `now − window`.
  *
  * SEQ joins scan only the stored items that the checks could accept. Every
  * item joined while event `e` is processed holds `e` at its highest position,
  * and every stored ts is at most `e.ts`. Hence:
  *  - an arrival at a child whose highest position is below its sibling's
  *    can never match, and its join returns at once (in a ZStream tree, every
  *    arrival at a left child);
  *  - a node whose store only such a dead join would read is not `kept` (the
  *    root among them);
  *  - a store, in creation order, is sorted by `maxTs`, and a live join reads
  *    only the range with `maxTs` in `[now − window, ts)`, `ts` being the
  *    arrival's at the position just after the stored item's highest one:
  *    the window check and the `Ordered` check at that pair.
  * Every item that a full scan would accept is still scanned, in store order,
  * so the partial matches are created in the same order.
  *
  * The engine emits only the matches it owns, those whose earliest event ts
  * lies in `[from, until)`: by default every match. At plan switches (paper
  * §2.2) the adaptation loop gives the engine started at `s_k` the interval
  * `[s_k, s_{k+1})`. An event tying a switch's ts reaches both engines, but
  * every match containing it starts before `s_{k+1}`, so only the old engine,
  * which saw all of the match's events, emits it. Unowned results still count
  * as partial matches.
  */
abstract class Engine private[engine] (val pattern: Pattern, root: JoinNode) extends Serializable {
  private[core] var from = Long.MinValue
  private[core] var until = Long.MaxValue
  private var pmCount = 0L
  private var sincePrune = 0
  private var lastTs = Long.MinValue
  private val nodes: List[JoinNode] = {
    def all(node: JoinNode): List[JoinNode] = node match {
      case in: Inner => in :: all(in.left) ::: all(in.right)
      case leaf      => List(leaf)
    }
    all(root)
  }
  private val leafOf: Array[Leaf] = {
    val leaves = new Array[Leaf](pattern.n)
    nodes.foreach { case l: Leaf if l.pos >= 0 && l.pos < pattern.n => leaves(l.pos) = l; case _ => }
    // 2n − 1 nodes make n leaves, so no empty slot means one leaf per position.
    require(nodes.length == 2 * pattern.n - 1 && !leaves.contains(null),
      "the join tree must have one leaf per pattern position")
    leaves
  }

  /** Process one event, appending the matches it completes to `out`. Throws
    * `IllegalArgumentException` if `e` is of a pattern type and `e.ts` is
    * below the last such event's.
    */
  final def onEvent(e: Event, out: mutable.Buffer[Array[Event]]): Unit =
    onEvent(e, pattern.typeToPos(e.etype), out)

  /** `onEvent(e, out)` with `pos`, the position of `e`'s type, already
    * looked up (-1 for a type outside the pattern).
    */
  private[core] final def onEvent(e: Event, pos: Int, out: mutable.Buffer[Array[Event]]): Unit = {
    if (pos < 0) return
    if (e.ts < lastTs)
      throw new IllegalArgumentException(s"late event ${e.id}: ts ${e.ts} is below the last ts $lastTs")
    lastTs = e.ts
    sincePrune += 1
    if (sincePrune >= Engine.PruneEvery) {
      nodes.foreach(_.prune(e.ts - pattern.window))
      sincePrune = 0
    }
    val leaf = leafOf(pos)
    if (leaf.counted) pmCount += 1
    if (leaf eq root) { if (owns(e.ts)) out += Array(e) }
    else {
      if (leaf.kept) leaf.store += e
      propagate(leaf, e, out)
    }
  }

  /** Join `item`, just arrived at `node`, with its sibling's store; the
    * results are propagated from the parent, or emitted at the root, and
    * stay in the parent's store only if it is kept.
    */
  private def propagate(node: JoinNode, item: Item, out: mutable.Buffer[Array[Event]]): Unit = {
    val parent = node.parent
    val first = parent.store.length
    parent.join(node, item)
    pmCount += parent.store.length - first
    var k = first
    while (k < parent.store.length) {
      val pm = parent.store(k).asInstanceOf[PartialMatch]
      if (parent ne root) propagate(parent, pm, out)
      else if (owns(pm.minTs)) out += pm.events
      k += 1
    }
    if (!parent.kept) parent.store.clear()
  }

  private def owns(minTs: Long): Boolean = minTs >= from && minTs < until

  /** Total partial matches materialized — the quantity the cost model
    * predicts and the plans minimize: every inner-node result, plus the
    * arrivals at counted leaves.
    */
  final def partialMatchesCreated: Long = pmCount
}

object Engine {
  private final val PruneEvery = 128
}
