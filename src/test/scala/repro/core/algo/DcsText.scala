package repro.core.algo

import repro.core.stats.Stats
import repro.core.stats.TestStats.{pairwise, randomStats}
import repro.harness.BenchHarness

/** Planner results as text, for the golden cases of the planner specs. */
object DcsText {

  /** The plan, then one line per building block with each of its deciding
    * conditions and the bits of its creation slack, in DCS order.
    */
  def of(r: PlanResult): Vector[String] =
    r.plan.toString +: r.dcs.map(_.map { c =>
      s"$c @${java.lang.Long.toHexString(java.lang.Double.doubleToRawLongBits(c.creationSlack))}"
    }.mkString("[", "; ", "]"))

  /** Fixed statistics at n = 3–6: random ones on an all-pairs pattern, the
    * all-ties default, and random ones on the traffic pattern.
    */
  val cases: Vector[(String, Stats)] = (3 to 6).toVector.flatMap { n =>
    Vector(
      s"pairwise($n) seed ${n * 7}" -> randomStats(pairwise(n), new scala.util.Random(n * 7L)),
      s"pairwise($n) default" -> Stats.default(pairwise(n)),
      s"traffic($n) seed ${n * 11}" -> randomStats(BenchHarness.trafficPattern(n), new scala.util.Random(n * 11L)),
    )
  }
}
