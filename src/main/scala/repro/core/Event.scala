package repro.core

/** An item of an engine's join store: a partial match, with its earliest and
  * latest ts and `at(p)`, its event at a pattern position `p` it covers. An
  * event is the one-position partial match: `ts`, `ts`, itself.
  */
private[core] abstract class Item extends Serializable {
  private[core] def minTs: Long
  private[core] def maxTs: Long
  private[core] def at(p: Int): Event
}

/** A primitive event in the input stream.
  *
  * @param id    unique event identifier (stream-wide)
  * @param ts    logical timestamp, non-decreasing in arrival order (a single
  *              multiplexed in-order stream, the paper's setting); equal
  *              timestamps are allowed
  * @param etype event type identifier (the paper's "event type"; one type per
  *              camera / stock id / observation point)
  * @param a0    first numeric attribute (traffic: average speed; stocks: diff)
  * @param a1    second numeric attribute (traffic: vehicle count; stocks: unused)
  */
final case class Event(id: Long, ts: Long, etype: Int, a0: Double, a1: Double) extends Item {

  /** Attribute access by index (0 or 1), used by [[Predicate]]. */
  def attr(i: Int): Double = if (i == 0) a0 else a1
  private[core] def minTs: Long = ts
  private[core] def maxTs: Long = ts
  private[core] def at(p: Int): Event = this
}
