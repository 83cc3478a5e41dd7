package repro.perfbench

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable

/** Task counters from a `SparkListener` the benchmark registers itself. */
final class SparkStats extends SparkListener {
  private var tasks = 0L
  private var runMs = 0L
  private var cpuNs = 0L
  private var shuffleWrite = 0L
  private var shuffleRead = 0L
  private val stageRunMs = mutable.HashMap.empty[(Int, Int), (Long, Long)] // (sum, max)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      tasks += 1
      runMs += m.executorRunTime
      cpuNs += m.executorCpuTime
      shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      shuffleRead += m.shuffleReadMetrics.totalBytesRead
      val k = (e.stageId, e.stageAttemptId)
      val (sum, max) = stageRunMs.getOrElse(k, (0L, 0L))
      stageRunMs.update(k, (sum + m.executorRunTime, math.max(max, m.executorRunTime)))
    }
  }

  def reset(spark: SparkSession): Unit = {
    ListenerBusAccess.drain(spark.sparkContext)
    synchronized {
      tasks = 0; runMs = 0; cpuNs = 0; shuffleWrite = 0; shuffleRead = 0
      stageRunMs.clear()
    }
  }

  /** The counters since the last reset, as per-layer metrics. */
  def metrics(spark: SparkSession): Map[String, Double] = {
    ListenerBusAccess.drain(spark.sparkContext)
    synchronized {
      // The longest task's share of its own stage's summed task run time.
      val share =
        if (stageRunMs.isEmpty) 0.0
        else {
          val (sum, max) = stageRunMs.values.maxBy { case (s, m) => (m, s) }
          if (sum == 0) 0.0 else max.toDouble / sum
        }
      Map(
        "spark.tasks" -> tasks.toDouble,
        "spark.task_run_s" -> runMs / 1e3,
        "spark.task_cpu_s" -> cpuNs / 1e9,
        "spark.shuffle_write_mb" -> shuffleWrite / 1048576.0,
        "spark.shuffle_read_mb" -> shuffleRead / 1048576.0,
        "spark.max_task_share" -> share)
    }
  }
}
