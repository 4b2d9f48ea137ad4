package repro.core

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
final case class Event(id: Long, ts: Long, etype: Int, a0: Double, a1: Double)
    extends Serializable {

  /** Attribute access by index, used by [[Predicate]]. */
  def attr(i: Int): Double = if (i == 0) a0 else a1
}
