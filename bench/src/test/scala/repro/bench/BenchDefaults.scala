package repro.bench

/** Shared scale parameters for the figure benches. The paper runs pattern
  * lengths 3–8 over 13.6M/80.5M real events; we run 3–6 over 60k synthetic
  * events per cell to fit the wall-clock budget — the scaling *trend* across
  * lengths and the method ordering are what must reproduce (DESIGN.md §3).
  * The methods, their tuned values and the seed are `BenchHarness`'s.
  */
object BenchDefaults {
  val lengths: Seq[Int] = Seq(3, 4, 5, 6)
  val nEvents: Int = 60000
}
