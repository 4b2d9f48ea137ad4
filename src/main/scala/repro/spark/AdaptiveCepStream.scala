package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{Event, Pattern}
import repro.core.adapt.AdaptiveCepEngine

/** One detected pattern match: the matched events' ids and timestamps, in
  * pattern-position order.
  */
final case class CepMatch(eventIds: Seq[Long], eventTs: Seq[Long])

object CepMatch {
  /** The match of `evs`, the matched events by pattern position. */
  def of(evs: Array[Event]): CepMatch =
    CepMatch(evs.map(_.id).toSeq, evs.map(_.ts).toSeq)
}

/** Adaptive CEP plan-switching as a Structured Streaming operator.
  *
  * The whole detection-adaptation loop (paper Algorithm 1) — statistics
  * monitoring, the reoptimizing decision function `D`, plan generation `A`,
  * and the live plan switchover — runs *inside* the stateful operator: the
  * group state of `flatMapGroupsWithState` is the serialized
  * [[AdaptiveCepEngine]], so monitored statistics trigger re-optimization of
  * the match evaluation plan across micro-batches.
  *
  * Events are keyed by `keyOf` (logical sub-stream; CEP matching is
  * order-sensitive, so parallelism is per key) and ts-sorted within each
  * micro-batch; batches must arrive in event-time order per key, which holds
  * for the in-order sources used here; an event older than its key's last
  * one fails the query (`AdaptiveCepEngine.onEvent` rejects it). On a static
  * Dataset the whole group is one batch, sorted by `(ts, id)`, which makes
  * this also the batch operator.
  */
object AdaptiveCepStream {

  def detect(
      events: Dataset[Event],
      pattern: Pattern,
      cfg: CepConfig,
      keyOf: Event => Int = _ => 0,
  ): Dataset[CepMatch] = {
    val spark = events.sparkSession
    import spark.implicits._
    implicit val stEnc: Encoder[AdaptiveCepEngine] = Encoders.javaSerialization(classOf[AdaptiveCepEngine])

    events
      .groupByKey(keyOf)
      .flatMapGroupsWithState[AdaptiveCepEngine, CepMatch](
        OutputMode.Append(), GroupStateTimeout.NoTimeout()) {
        (_: Int, it: Iterator[Event], state: GroupState[AdaptiveCepEngine]) =>
          val engine = state.getOption.getOrElse(Cep.makeEngine(pattern, cfg))
          val batch = it.toArray.sortBy(e => (e.ts, e.id))
          val out = batch.iterator.flatMap(e => engine.onEvent(e).map(CepMatch.of)).toVector
          state.update(engine)
          out.iterator
      }
  }
}
