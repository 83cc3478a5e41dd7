package repro.perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One span: a named interval on the benchmark thread, with the span that
  * enclosed it (`parent`, -1 at the top) and the bytes the thread allocated
  * inside it.
  */
final case class Span(
    id: Int,
    parent: Int,
    name: String,
    tag: String,
    startNs: Long,
    endNs: Long,
    allocBytes: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans and counters recorded from the benchmark's own code around its
  * calls into each layer of the program. The spans are kept in memory and
  * written out once, when the run ends.
  *
  * A disabled tracer runs every body as is and records nothing, so the
  * untraced passes take the same code path as the traced ones.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer.empty[Span]
  val counts = mutable.LinkedHashMap.empty[String, Long]
  private var stack: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String, tag: String = "")(body: => A): A =
    if (!enabled) body
    else {
      val id = nextId
      nextId += 1
      val parent = stack.headOption.getOrElse(-1)
      stack = id :: stack
      val a0 = Jvm.allocatedBytes()
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        val a1 = Jvm.allocatedBytes()
        stack = stack.tail
        spans += Span(id, parent, name, tag, t0, t1, a1 - a0)
      }
    }

  def count(name: String, n: Long): Unit =
    if (enabled) counts.update(name, counts.getOrElse(name, 0L) + n)

  /** Summed duration (s) of the spans with this name. */
  def seconds(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Summed allocation (MB) inside the spans with this name. */
  def allocMb(name: String): Double =
    spans.iterator.filter(_.name == name).map(_.allocBytes).sum / 1048576.0
}

object Tracer {
  val off = new Tracer(false)
}

/** JVM-wide readings: thread allocation, collector time and live heap. */
object Jvm {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val collectors = ManagementFactory.getGarbageCollectorMXBeans.asScala.toVector
  private val memory = ManagementFactory.getMemoryMXBean

  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** (collection count, collection time in ms) summed over all collectors. */
  def gc(): (Long, Long) =
    collectors.foldLeft((0L, 0L)) { (acc, c) =>
      (acc._1 + math.max(0L, c.getCollectionCount), acc._2 + math.max(0L, c.getCollectionTime))
    }

  /** Heap still reachable, read after a full collection. */
  def liveHeapBytes(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }
}
