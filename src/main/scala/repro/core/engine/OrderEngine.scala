package repro.core.engine

import repro.core.{Event, Pattern, PatternKind}
import repro.core.plan.OrderPlan
import scala.collection.mutable

/** Order-based (lazy NFA) evaluation engine, after Kolchinsky et al. [33].
  *
  * The plan order is a processing order, not the temporal order: events of
  * `order(0)`'s position open partial matches; a partial match at step `s`
  * is extended with events of position `order(s)` either from the history
  * buffer (events that already arrived) or, failing that, by waiting in
  * `pending(s)` for future arrivals. Each valid event combination is
  * therefore produced exactly once.
  *
  * SEQ temporal order, the time window, and all applicable predicates are
  * enforced on every extension; expired history and dead partial matches are
  * pruned by watermark.
  */
final class OrderEngine(pattern: Pattern, val plan: OrderPlan, pruneEvery: Int = 128)
    extends Engine(pattern, pruneEvery) {
  require(plan.order.size == pattern.n)

  private val n = pattern.n
  private val isSeq = pattern.kind == PatternKind.Sequence
  // stepOf(pos) = index of `pos` in the plan order.
  private val stepOf: Array[Int] = {
    val a = new Array[Int](n)
    plan.order.zipWithIndex.foreach { case (p, s) => a(p) = s }
    a
  }

  private val buffers = Array.fill(n)(new mutable.ArrayDeque[Event]) // per position, ts order
  private val pending = Array.fill(n)(new mutable.ArrayBuffer[PartialMatch]) // per step s >= 1

  /** Can `e` at position `pos` legally extend `pm`? */
  private def compatible(pm: PartialMatch, e: Event, pos: Int): Boolean = {
    if (math.max(pm.maxTs, e.ts) - math.min(pm.minTs, e.ts) > pattern.window) return false
    var q = 0
    while (q < n) {
      val other = pm.events(q)
      if (other != null) {
        if (isSeq && (if (q < pos) other.ts >= e.ts else other.ts <= e.ts)) return false
        if (!pattern.pairHolds(pos, q, e, other)) return false
      }
      q += 1
    }
    true
  }

  /** Advance `pm` (which has completed steps `0 until step`): scan history
    * for the next position's events, then park in `pending(step)` to catch
    * future arrivals.
    */
  private def advance(pm: PartialMatch, step: Int, out: mutable.Buffer[Array[Event]]): Unit = {
    if (step == n) { out += pm.events; return }
    val nextPos = plan.order(step)
    val buf = buffers(nextPos)
    var i = 0
    while (i < buf.length) {
      val cand = buf(i)
      if (compatible(pm, cand, nextPos)) {
        pmCount += 1
        advance(pm.extended(cand, nextPos), step + 1, out)
      }
      i += 1
    }
    pending(step) += pm
  }

  protected def onPosition(e: Event, pos: Int, out: mutable.Buffer[Array[Event]]): Unit = {
    val step = stepOf(pos)
    // Future-arrival path: extend parked partial matches awaiting this step.
    if (step > 0) {
      val parked = pending(step)
      // Iterate over a snapshot length: `advance` only appends to other steps.
      var i = 0
      val len = parked.length
      while (i < len) {
        val pm = parked(i)
        if (compatible(pm, e, pos)) {
          pmCount += 1
          advance(pm.extended(e, pos), step + 1, out)
        }
        i += 1
      }
    } else {
      // Opening position: every event starts a new partial match.
      pmCount += 1
      advance(PartialMatch.single(n, e, pos), 1, out)
    }
    buffers(pos).append(e)
  }

  /** Any completion of a parked partial match uses future events with
    * ts ≥ now (buffered ones were joined at creation), so `minTs < horizon`
    * is dead.
    */
  protected def prune(horizon: Long): Unit = {
    var p = 0
    while (p < n) {
      val buf = buffers(p)
      while (buf.nonEmpty && buf.head.ts < horizon) buf.removeHead()
      p += 1
    }
    var s = 1
    while (s < n) {
      pending(s).filterInPlace(_.minTs >= horizon)
      s += 1
    }
  }
}
