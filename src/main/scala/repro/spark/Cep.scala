package repro.spark

import repro.core.Pattern
import repro.core.adapt._
import repro.core.algo.{GreedyOrderPlanner, Planner, ZStreamPlanner}
import repro.core.stats.{StatisticsMonitor, Stats}

/** Which plan-generation algorithm `A` to use (paper §4). */
sealed trait AlgoKind extends Serializable
object AlgoKind {
  case object Greedy extends AlgoKind
  case object ZStream extends AlgoKind
}

/** Which reoptimizing decision function `D` to use (paper §5.1). */
sealed trait DecisionKind extends Serializable
object DecisionKind {
  case object Static extends DecisionKind
  case object Unconditional extends DecisionKind
  final case class Threshold(t: Double) extends DecisionKind
  final case class Invariant(d: Double, k: Int) extends DecisionKind
}

/** Serializable configuration of an adaptive CEP run — shipped into Spark
  * task closures, from which the engine is instantiated on the executor.
  * `D` runs every `statPeriod` events. The monitor's window factor and seed
  * are fixed by `StatisticsMonitor`; `statWindowFactor` and `seed` only read
  * them back for code that builds its own monitor.
  */
final case class CepConfig(
    algo: AlgoKind = AlgoKind.Greedy,
    decision: DecisionKind = DecisionKind.Invariant(0.0, 1),
    statPeriod: Int = 64,
) extends Serializable {
  def statWindowFactor: Int = StatisticsMonitor.StatWindowFactor
  def seed: Long = StatisticsMonitor.Seed
}

object Cep {
  def makePlanner(pattern: Pattern, algo: AlgoKind): Planner = algo match {
    case AlgoKind.Greedy  => new GreedyOrderPlanner(pattern)
    case AlgoKind.ZStream => new ZStreamPlanner(pattern)
  }

  def makeDecision(pattern: Pattern, kind: DecisionKind): Decision = kind match {
    case DecisionKind.Static          => new StaticDecision
    case DecisionKind.Unconditional   => new UnconditionalDecision
    case DecisionKind.Threshold(t)    => new ThresholdDecision(pattern, t)
    case DecisionKind.Invariant(d, k) => new InvariantDecision(d, k)
  }

  def makeEngine(pattern: Pattern, cfg: CepConfig, initialStats: Option[Stats] = None): AdaptiveCepEngine =
    new AdaptiveCepEngine(
      pattern,
      makePlanner(pattern, cfg.algo),
      makeDecision(pattern, cfg.decision),
      statPeriod = cfg.statPeriod,
      initialStats = initialStats,
    )
}
