package repro.core.engine

import repro.core.{Event, Pattern}
import scala.collection.mutable

/** A partial match: events indexed by pattern position (`null` = unfilled),
  * plus cached min/max timestamps for O(1) window checks.
  */
final class PartialMatch(
    val events: Array[Event],
    val filled: Int,
    val minTs: Long,
    val maxTs: Long,
) extends Serializable {

  /** New partial match extended with `e` at position `pos`. */
  def extended(e: Event, pos: Int): PartialMatch = {
    val arr = events.clone()
    arr(pos) = e
    new PartialMatch(arr, filled + 1, math.min(minTs, e.ts), math.max(maxTs, e.ts))
  }
}

object PartialMatch {
  def single(n: Int, e: Event, pos: Int): PartialMatch = {
    val arr = new Array[Event](n)
    arr(pos) = e
    new PartialMatch(arr, 1, e.ts, e.ts)
  }
}

/** A pattern evaluation engine instantiated from an evaluation plan. Events
  * must be fed in timestamp order; full matches (events by pattern position)
  * are appended to `out`.
  *
  * The engine routes each pattern event to its position, and every
  * `pruneEvery` pattern events first prunes at horizon `now − window`;
  * subclasses supply the extension/join (`onPosition`) and store pruning
  * (`prune`), and count the partial matches they create in `pmCount`.
  */
abstract class Engine(val pattern: Pattern, pruneEvery: Int) extends Serializable {
  protected var pmCount = 0L
  private var sincePrune = 0

  final def onEvent(e: Event, out: mutable.Buffer[Array[Event]]): Unit = {
    val pos = pattern.typeToPos.getOrElse(e.etype, -1)
    if (pos < 0) return
    sincePrune += 1
    if (sincePrune >= pruneEvery) { prune(e.ts - pattern.window); sincePrune = 0 }
    onPosition(e, pos, out)
  }

  /** Process event `e` of pattern position `pos`. */
  protected def onPosition(e: Event, pos: Int, out: mutable.Buffer[Array[Event]]): Unit

  /** Drop stored events and partial matches older than `horizon`: no
    * future arrival can complete a match with them.
    */
  protected def prune(horizon: Long): Unit

  /** Total partial matches materialized — the quantity the cost model
    * predicts and the plans minimize.
    */
  final def partialMatchesCreated: Long = pmCount
}
