package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.OutputMode
import repro.SparkSpec
import repro.core.{BruteForce, Event, Pattern, PredOp, Predicate}
import repro.data.TrafficGen

/** The Structured Streaming operator: the detection-adaptation loop runs in
  * `flatMapGroupsWithState` state across micro-batches and must produce
  * exactly the batch-mode match set.
  */
class AdaptiveCepStreamSpec extends SparkSpec {

  private val ShufflePartitions = "spark.sql.shuffle.partitions"

  private def runStream(evs: Seq[Event], pattern: Pattern, cfg: CepConfig,
                        batches: Int, queryName: String): Set[Vector[Long]] = {
    val s = spark
    import s.implicits._
    implicit val sqlCtx = spark.sqlContext
    val input = MemoryStream[Event]
    val matches = AdaptiveCepStream.detect(input.toDS(), pattern, cfg)
    // Every event here has one key, so all but one of the shared session's
    // shuffle partitions (64 by default) would hold an empty state store.
    val saved = spark.conf.get(ShufflePartitions)
    spark.conf.set(ShufflePartitions, "1")
    try {
      val query = matches.writeStream
        .format("memory")
        .queryName(queryName)
        .outputMode(OutputMode.Append())
        .start()
      try {
        val chunkSize = math.max(1, evs.size / batches)
        evs.grouped(chunkSize).foreach { chunk =>
          input.addData(chunk)
          query.processAllAvailable()
        }
        spark.sql(s"SELECT eventIds FROM $queryName").collect()
          .map(_.getSeq[Long](0).toVector).toSet
      } finally query.stop()
    } finally spark.conf.set(ShufflePartitions, saved)
  }

  test("streaming matches equal batch matches (static plan, one batch)") {
    val p = Pattern.seq(3, 12, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val evs = BruteForce.randomStream(3, 150, 1)
    val got = runStream(evs, p, CepConfig(AlgoKind.Greedy, DecisionKind.Static), 1, "m1")
    assert(got == BruteForce.matches(p, evs))
  }

  test("state persists across micro-batches: matches spanning batch boundaries") {
    val p = Pattern.seq(3, 12, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val evs = BruteForce.randomStream(3, 150, 2)
    val got = runStream(evs, p, CepConfig(AlgoKind.Greedy, DecisionKind.Static), 10, "m2")
    assert(got == BruteForce.matches(p, evs))
  }

  test("adaptive plan-switching inside the stateful operator preserves the match set") {
    val p = Pattern.seq(3, 40)
    // Rate flip across the stream forces replans inside the operator state.
    val evs = (TrafficGen.events(3, 1500, epochs = 1, seed = 3) ++
      TrafficGen.events(3, 1500, epochs = 1, seed = 4)
        .map(e => e.copy(id = e.id + 1500, ts = e.ts + 1500, etype = 2 - e.etype))).toVector
    val got = runStream(evs, p,
      CepConfig(AlgoKind.Greedy, DecisionKind.Invariant(0.0, 1), statPeriod = 50), 6, "m3")
    assert(got == BruteForce.matches(p, evs))
  }

  test("zstream algorithm in streaming mode") {
    val p = Pattern.seq(3, 12, Vector(Predicate(0, 1, 0, PredOp.Lt)))
    val evs = BruteForce.randomStream(3, 200, 5)
    val got = runStream(evs, p,
      CepConfig(AlgoKind.ZStream, DecisionKind.Unconditional, statPeriod = 30), 5, "m4")
    assert(got == BruteForce.matches(p, evs))
  }
}
