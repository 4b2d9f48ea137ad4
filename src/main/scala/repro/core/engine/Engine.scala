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
  * `kept`, which its parent sets iff its join reads them, and hands them to
  * its parent's join only if `live`, which its parent sets iff that join
  * can match them.
  */
private[engine] sealed abstract class JoinNode extends Serializable {
  val positions: Array[Int]
  var parent: Inner = _
  var kept = false
  var live = false
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
  val positions: Array[Int] = left.positions ++ right.positions
  private val seq = pattern.kind == PatternKind.Sequence

  // next(f): for an item arriving at the left (f = 0) or right (f = 1) child,
  // -1 if it can never match, else (for SEQ) the arriving position just after
  // the sibling's highest one. A SEQ match needs the child's highest position
  // above the sibling's: an arriving item holds the event being processed at
  // its highest position, and every stored ts is at most that event's.
  private[engine] val next = new Array[Int](2)

  // checks(f): what an item arriving at the left (f = 0) or right (f = 1)
  // child must meet with a stored item of the other, as flat (code, arriving
  // position, stored position) triples: `Predicate.holds(code, arriving
  // event, stored event)` must hold. For SEQ, the positions adjacent in the
  // union but on different sides must be in ts order (each side is ordered
  // already, so these order the union), except the last such pair (the
  // sibling's highest position, next(f)), which the join's range proves; then
  // every predicate on a pair spanning the children must hold. Each
  // comparison enters both directions, oriented arriving op stored, but a
  // dead direction keeps none. The same pass over the positions fills `next`.
  private[engine] val checks: Array[Array[Int]] = {
    val side = new Array[Int](pattern.n) // 0 left, 1 right, -1 neither
    java.util.Arrays.fill(side, -1)
    var k = 0
    while (k < positions.length) { side(positions(k)) = if (k < left.positions.length) 0 else 1; k += 1 }
    // Written into arrays of the largest possible length, then cut to length.
    val most = 3 * (positions.length - 1 + pattern.predicates.length)
    val flat = Array(new Array[Int](most), new Array[Int](most))
    val len = new Array[Int](2)
    def add(s: Int, code: Int, a: Int, b: Int): Unit = {
      flat(s)(len(s)) = code
      flat(s)(len(s) + 1) = a
      flat(s)(len(s) + 2) = b
      len(s) += 3
    }
    def spanning(i: Int, j: Int, code: Int): Unit =
      if (side(i) >= 0 && side(j) >= 0 && side(i) != side(j)) {
        add(side(i), code, i, j)
        add(side(j), code ^ 1, j, i)
      }
    var prev = -1
    var low = -1 // the latest pair adjacent across the sides is (low, high)
    var high = -1
    var p = 0
    while (p < pattern.n) {
      if (side(p) >= 0) {
        if (prev >= 0 && side(prev) != side(p)) {
          if (seq && high >= 0) spanning(low, high, Predicate.TsLt)
          next(side(p)) = p
          low = prev
          high = p
        }
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
    Array(if (next(0) < 0) Array.emptyIntArray else java.util.Arrays.copyOf(flat(0), len(0)),
      if (next(1) < 0) Array.emptyIntArray else java.util.Arrays.copyOf(flat(1), len(1)))
  }
  // A child's store is read only by the arrivals at its sibling.
  left.kept = next(1) >= 0
  right.kept = next(0) >= 0
  left.live = next(0) >= 0
  right.live = next(1) >= 0

  /** Joins `item`, just arrived at child `from`, which must be `live`, with
    * the stored items of the other child that can match it, and appends the
    * partial matches to the store.
    */
  def join(from: JoinNode, item: Item): Unit = {
    val f = if (from eq left) 0 else 1
    val other = if (f == 0) right else left
    val check = checks(f)
    val itemMinTs = item.minTs
    val itemMaxTs = item.maxTs
    // A match needs the stored item's maxTs within the window of item.maxTs
    // and, for SEQ, below the ts at next(f) (the stored item's maxTs is its
    // ts at the sibling's highest position).
    val oldest = itemMaxTs - pattern.window
    var m = firstMaxTsAtLeast(other.store, 0, oldest)
    val end = if (seq) firstMaxTsAtLeast(other.store, m, item.at(next(f)).ts) else other.store.length
    // The window check. The item holds the event being processed, so its
    // maxTs is at least every stored ts, and it lies within the window
    // itself: the union does iff the stored item's minTs reaches back no
    // further than `oldest`.
    while (m < end) {
      val stored = other.store(m)
      var ok = stored.minTs >= oldest
      var t = 0
      while (ok && t < check.length) {
        ok = Predicate.holds(check(t), item.at(check(t + 1)), stored.at(check(t + 2)))
        t += 3
      }
      if (ok) {
        val evs = new Array[Event](pattern.n)
        var k = 0
        while (k < from.positions.length) { val p = from.positions(k); evs(p) = item.at(p); k += 1 }
        k = 0
        while (k < other.positions.length) { val p = other.positions(k); evs(p) = stored.at(p); k += 1 }
        store += new PartialMatch(evs, math.min(itemMinTs, stored.minTs), itemMaxTs)
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
  * Joins scan only the stored items that the checks could accept. Every
  * item joined while event `e` is processed holds `e`, at its highest
  * position under SEQ, and every stored ts is at most `e.ts`. Hence:
  *  - a store, in creation order, is sorted by `maxTs`, and a live join reads
  *    only the items with `maxTs` at least `now − window`: an older one's
  *    `minTs` is older too, so the window check would reject it;
  *  - under SEQ, an arrival at a child whose highest position is below its
  *    sibling's can never match, so the child is not `live` and the arrival
  *    stops there (in a ZStream tree, every arrival at a left child);
  *  - under SEQ, a node whose store only such a dead join would read is not
  *    `kept` (the root among them);
  *  - under SEQ, the range also ends below `ts`, the arrival's at the
  *    position just after the stored item's highest one: the ts order at that
  *    pair, which the join's checks therefore leave out. An AND join reads
  *    to the end of the store.
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
  private val nodes: Array[JoinNode] = {
    val all = new mutable.ArrayBuffer[JoinNode](2 * pattern.n - 1)
    def add(node: JoinNode): Unit = {
      all += node
      node match { case in: Inner => add(in.left); add(in.right); case _ => }
    }
    add(root)
    all.toArray
  }
  private val leafOf: Array[Leaf] = {
    val leaves = new Array[Leaf](pattern.n)
    var k = 0
    while (k < nodes.length) {
      nodes(k) match { case l: Leaf if l.pos >= 0 && l.pos < pattern.n => leaves(l.pos) = l; case _ => }
      k += 1
    }
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
      var k = 0
      while (k < nodes.length) { nodes(k).prune(e.ts - pattern.window); k += 1 }
      sincePrune = 0
    }
    val leaf = leafOf(pos)
    if (leaf.counted) pmCount += 1
    if (leaf eq root) { if (owns(e.ts)) out += Array(e) }
    else {
      if (leaf.kept) leaf.store += e
      if (leaf.live) propagate(leaf, e, out)
    }
  }

  /** Join `item`, just arrived at `node`, which is `live`, with its
    * sibling's store; the results are propagated from the parent if it is
    * live, or emitted at the root, and stay in the parent's store only if
    * it is kept.
    */
  private def propagate(node: JoinNode, item: Item, out: mutable.Buffer[Array[Event]]): Unit = {
    val parent = node.parent
    val first = parent.store.length
    parent.join(node, item)
    pmCount += parent.store.length - first
    var k = first
    while (k < parent.store.length) {
      val pm = parent.store(k).asInstanceOf[PartialMatch]
      if (parent eq root) { if (owns(pm.minTs)) out += pm.events }
      else if (parent.live) propagate(parent, pm, out)
      k += 1
    }
    if (!parent.kept && parent.store.length > 0) parent.store.clear()
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
