package repro.spark

import org.apache.spark.sql.Dataset
import repro.core.{Event, Pattern}

/** One detected pattern match: the matched events' ids and timestamps, in
  * pattern-position order, plus the completion timestamp.
  */
final case class CepMatch(eventIds: Seq[Long], eventTs: Seq[Long], lastTs: Long)

object CepMatch {
  /** The match of `evs`, the matched events by pattern position. */
  def of(evs: Array[Event]): CepMatch =
    CepMatch(evs.map(_.id).toSeq, evs.map(_.ts).toSeq, evs.map(_.ts).max)
}

/** Batch-mode CEP detection over a static `Dataset[Event]`: the streaming
  * operator [[AdaptiveCepStream.detect]] run on a static Dataset, where
  * `flatMapGroupsWithState` runs once per group over the whole group, sorted
  * by `(ts, id)`. This is the single-stream entry point used by the
  * correctness oracle.
  */
object CepBatch {

  /** Matches as a DataFrame with one `p<i>_id` column per pattern position —
    * the shape compared against the DuckDB oracle's n-way self-join.
    */
  def detectIdsDF(events: Dataset[Event], pattern: Pattern, cfg: CepConfig) = {
    val spark = events.sparkSession
    import spark.implicits._
    import org.apache.spark.sql.functions.element_at
    val m = AdaptiveCepStream.detect(events, pattern, cfg)
    m.select((0 until pattern.n).map(i => element_at($"eventIds", i + 1).as(s"p${i}_id")): _*)
  }
}
