package repro.core

/** `java.util.Random`'s generator in plain fields: the 48-bit linear
  * congruential generator of Knuth, TAOCP vol. 2 §3.2.1, and the polar
  * method for gaussians (§3.4.1, Algorithm P) with its cached second value.
  *
  * `new Lcg(seed)` makes the same draws, bit for bit, as
  * `new java.util.Random(seed)`, so streams drawn from either are identical.
  * `java.util.Random` advances its seed by compare-and-set and synchronizes
  * `nextGaussian`; a generator owned by one thread needs neither.
  */
final class Lcg(seed: Long) {
  private var state: Long = Lcg.seeded(seed)
  private var nextNextGaussian: Double = 0.0
  private var haveNextNextGaussian: Boolean = false

  /** `java.util.Random.next(bits)`. */
  private def next(bits: Int): Int = {
    state = Lcg.step(state)
    (state >>> (48 - bits)).toInt
  }

  /** `java.util.Random.nextDouble()`: uniform in [0, 1). */
  def nextDouble(): Double = ((next(26).toLong << 27) + next(27)) * Lcg.DoubleUnit

  /** `java.util.Random.nextGaussian()`: standard normal. Uses `StrictMath`,
    * as `java.util.Random` does, so no intrinsic can move the last bit.
    */
  def nextGaussian(): Double =
    if (haveNextNextGaussian) {
      haveNextNextGaussian = false
      nextNextGaussian
    } else {
      var v1, v2, s = 0.0
      while ({
        v1 = 2 * nextDouble() - 1
        v2 = 2 * nextDouble() - 1
        s = v1 * v1 + v2 * v2
        s >= 1 || s == 0
      }) ()
      val multiplier = StrictMath.sqrt(-2 * StrictMath.log(s) / s)
      nextNextGaussian = v2 * multiplier
      haveNextNextGaussian = true
      v1 * multiplier
    }
}

object Lcg {
  private final val Multiplier = 0x5DEECE66DL
  private final val Addend = 0xBL
  private final val Mask = (1L << 48) - 1
  private final val DoubleUnit = 1.0 / (1L << 53)

  /** The generator state that `new java.util.Random(seed)` starts from. */
  def seeded(seed: Long): Long = (seed ^ Multiplier) & Mask

  /** The generator state after `s`. */
  def step(s: Long): Long = (s * Multiplier + Addend) & Mask
}
