package repro.spark

import org.apache.spark.sql.{Dataset, Encoder, Encoders}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{Event, Pattern}
import repro.core.adapt.AdaptiveCepEngine

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
  * for the in-order sources used here. On a static Dataset the whole group is
  * one batch, which makes this also the batch operator ([[CepBatch]]).
  */
object AdaptiveCepStream {

  /** Java-serialization encoder for the engine state: robust across the
    * mutable engine internals (ring buffers, deques, RNG), at a cost that is
    * irrelevant at test scale.
    */
  private def stateEncoder: Encoder[AdaptiveCepEngine] =
    Encoders.javaSerialization(classOf[AdaptiveCepEngine])

  def detect(
      events: Dataset[Event],
      pattern: Pattern,
      cfg: CepConfig,
      keyOf: Event => Int = _ => 0,
  ): Dataset[CepMatch] = {
    val spark = events.sparkSession
    import spark.implicits._
    implicit val stEnc: Encoder[AdaptiveCepEngine] = stateEncoder

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
