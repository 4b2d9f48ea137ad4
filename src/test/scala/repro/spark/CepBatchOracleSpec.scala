package repro.spark

import repro.{Oracle, SparkSpec}
import repro.core.{BruteForce, Event, Pattern, PredOp, Predicate}

/** Correctness of the full detection path against the DuckDB oracle: a CEP
  * match of SEQ(e₀,…,e_{n−1}) with window W and predicates is exactly a row
  * of the n-way self-join with timestamp-ordering, window and predicate
  * conditions. Any wrong plan rewrite, engine bug, or broken switchover
  * changes the match set and is caught here.
  */
class CepBatchOracleSpec extends SparkSpec {

  private def eventsDF(evs: Seq[Event]) = {
    val s = spark
    import s.implicits._
    spark.createDataset(evs)
  }

  private def joinSql(pattern: Pattern, extraPreds: Seq[String]): String = {
    val n = pattern.n
    val aliases = (0 until n).map(i => s"e$i")
    val from = aliases.map(a => s"ev $a").mkString(", ")
    val typeConds = (0 until n).map(i => s"CAST(e$i.etype AS INT) = ${pattern.types(i)}")
    val seqConds = (0 until n - 1).map(i =>
      s"CAST(e$i.ts AS BIGINT) < CAST(e${i + 1}.ts AS BIGINT)")
    val windowCond = Seq(
      s"CAST(e${n - 1}.ts AS BIGINT) - CAST(e0.ts AS BIGINT) <= ${pattern.window}")
    val select = (0 until n).map(i => s"CAST(e$i.id AS BIGINT) AS p${i}_id").mkString(", ")
    val conds = typeConds ++ seqConds ++ windowCond ++ extraPreds
    s"SELECT $select FROM $from WHERE ${conds.mkString(" AND ")}"
  }

  private def checkAgainstOracle(pattern: Pattern, evs: Seq[Event], cfg: CepConfig,
                                 extraPreds: Seq[String]): Unit = {
    val s = spark
    import s.implicits._
    import org.apache.spark.sql.functions.element_at
    // One `p<i>_id` column per position, the shape of the oracle's self-join.
    val got = AdaptiveCepStream.detect(eventsDF(evs), pattern, cfg)
      .select((0 until pattern.n).map(i => element_at($"eventIds", i + 1).as(s"p${i}_id")): _*)
    Oracle.assertEquivalent(got, joinSql(pattern, extraPreds), "ev" -> eventsDF(evs).toDF())
  }

  private val seq3Preds = Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(1, 2, 0, PredOp.Lt))
  private val seq3PredsSql = Seq(
    "CAST(e0.a0 AS DOUBLE) < CAST(e1.a0 AS DOUBLE)",
    "CAST(e1.a0 AS DOUBLE) < CAST(e2.a0 AS DOUBLE)")

  test("oracle: SEQ(A,B,C) with ordering predicates — greedy/static") {
    val p = Pattern.seq(3, 12, seq3Preds)
    val evs = BruteForce.randomStream(3, 150, 1)
    checkAgainstOracle(p, evs, CepConfig(AlgoKind.Greedy, DecisionKind.Static), seq3PredsSql)
  }

  test("oracle: SEQ(A,B,C) — zstream/static") {
    val p = Pattern.seq(3, 12, seq3Preds)
    val evs = BruteForce.randomStream(3, 150, 2)
    checkAgainstOracle(p, evs, CepConfig(AlgoKind.ZStream, DecisionKind.Static), seq3PredsSql)
  }

  test("oracle: SEQ(A,B,C) while adapting unconditionally (plan switches mid-stream)") {
    val p = Pattern.seq(3, 12, seq3Preds)
    val evs = BruteForce.randomStream(3, 400, 3)
    checkAgainstOracle(p, evs,
      CepConfig(AlgoKind.Greedy, DecisionKind.Unconditional, statPeriod = 40), seq3PredsSql)
  }

  test("oracle: SEQ(A,B,C) with invariant-based adaptation") {
    val p = Pattern.seq(3, 12, seq3Preds)
    val evs = BruteForce.randomStream(3, 400, 4)
    checkAgainstOracle(p, evs,
      CepConfig(AlgoKind.ZStream, DecisionKind.Invariant(0.0, 2), statPeriod = 40), seq3PredsSql)
  }

  test("oracle: SEQ of length 4 without predicates") {
    val p = Pattern.seq(4, 8)
    val evs = BruteForce.randomStream(4, 120, 5)
    checkAgainstOracle(p, evs, CepConfig(AlgoKind.Greedy, DecisionKind.Static), Nil)
  }

  test("oracle: predicate on a non-adjacent pair") {
    val p = Pattern.seq(3, 10, Vector(Predicate(0, 2, 1, PredOp.Gt)))
    val evs = BruteForce.randomStream(3, 150, 6)
    checkAgainstOracle(p, evs, CepConfig(AlgoKind.Greedy, DecisionKind.Static),
      Seq("CAST(e0.a1 AS DOUBLE) > CAST(e2.a1 AS DOUBLE)"))
  }

  test("oracle: empty result when predicates are unsatisfiable") {
    val p = Pattern.seq(2, 10,
      Vector(Predicate(0, 1, 0, PredOp.Lt), Predicate(0, 1, 0, PredOp.Gt)))
    val evs = BruteForce.randomStream(2, 80, 7)
    checkAgainstOracle(p, evs, CepConfig(AlgoKind.Greedy, DecisionKind.Static),
      Seq("CAST(e0.a0 AS DOUBLE) < CAST(e1.a0 AS DOUBLE)",
          "CAST(e0.a0 AS DOUBLE) > CAST(e1.a0 AS DOUBLE)"))
  }

  test("batch detect returns match timestamps in position order") {
    val p = Pattern.seq(3, 12, seq3Preds)
    val evs = BruteForce.randomStream(3, 120, 8)
    val rows = AdaptiveCepStream.detect(eventsDF(evs), p, CepConfig()).collect()
    rows.foreach { m =>
      assert(m.eventTs == m.eventTs.sorted, s"SEQ match out of order: $m")
      assert(m.eventTs.max - m.eventTs.min <= p.window)
    }
  }
}
