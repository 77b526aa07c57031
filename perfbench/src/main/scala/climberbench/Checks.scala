package climberbench

import repro.core.{ClimberIndex, ClimberQuery, Distances, TrieNode}
import repro.series.SeriesGen
import repro.exp.Workloads

/** What one build put where: a row per record of `index.data`. */
final case class Layout(ids: Array[Long], groups: Array[Int], parts: Array[Int], rs: Array[Array[Int]]) {
  def size: Int = ids.length
}

/** Index-health figures of one build (ROADMAP aim 4), measured from the
  * index's data and the public trie navigation.
  */
final case class Health(
    partitions: Int,
    partSizes: Array[Long], // rows per partition id
    partsOverC: Int,
    maxOccupancyRatio: Double, // largest partition ÷ c
    g0Share: Double, // share of rows in the fall-back group G₀
    defaultInflowRows: Long, // rows whose trie walk ended short of a leaf
)

/** Output checks. Each returns the list of problems found; empty is correct. */
object Checks {
  import Bench.{Dataset, K}

  def layout(index: ClimberIndex): Layout = {
    val rows = index.data.select("id", "group", "part", "rs").collect()
    Layout(rows.map(_.getLong(0)), rows.map(_.getInt(1)), rows.map(_.getInt(2)),
      rows.map(_.getSeq[Int](3).toArray))
  }

  /** Every id of 0 until n is placed exactly once, in a partition that
    * exists.
    */
  def placement(l: Layout, np: Int, n: Long): Seq[String] = {
    val seen = new java.util.BitSet(n.toInt)
    val errs = Seq.newBuilder[String]
    if (l.size != n) errs += s"index holds ${l.size} rows, expected $n"
    l.ids.indices.foreach { i =>
      val (id, part) = (l.ids(i), l.parts(i))
      if (id < 0 || id >= n) errs += s"id $id outside [0, $n)"
      else if (seen.get(id.toInt)) errs += s"id $id placed twice"
      else seen.set(id.toInt)
      if (part < 0 || part >= np) errs += s"id $id in partition $part of $np"
    }
    errs.result().take(5)
  }

  def health(index: ClimberIndex, l: Layout): Health = {
    val np = index.skeleton.numPartitions
    val sizes = new Array[Long](np)
    var g0 = 0L
    var inflow = 0L
    var i = 0
    while (i < l.size) {
      if (l.parts(i) >= 0 && l.parts(i) < np) sizes(l.parts(i)) += 1
      if (l.groups(i) == 0) g0 += 1
      if (!index.skeleton.groups(l.groups(i)).root.navigate(l.rs(i)).isLeaf) inflow += 1
      i += 1
    }
    val c = index.params.capacity
    Health(np, sizes, sizes.count(_ > c), sizes.max.toDouble / c,
      g0.toDouble / math.max(1, l.size), inflow)
  }

  /** One query's answer: min(K, planned rows) ids, strictly ascending in
    * (distance, id), each distance equal to `Distances.euclidean` against the
    * series regenerated locally, each id from a planned partition.
    */
  def answer(index: ClimberIndex, partOf: Array[Int], partSizes: Array[Long],
             q: QueryRun): Seq[String] = {
    val plan = ClimberQuery.planFor(index, q.query, K, Bench.Variant, q.qid)
    val planned = plan.partitions.map(p => partSizes(p)).sum
    val want = math.min(K.toLong, planned)
    val errs = Seq.newBuilder[String]
    if (q.result.size != want) errs += s"query ${q.qid}: ${q.result.size} ids, expected $want"
    val parts = plan.partitions.toSet
    q.result.zipWithIndex.foreach { case ((id, d), i) =>
      if (i > 0) {
        val (pid, pd) = q.result(i - 1)
        if (pd > d || (pd == d && pid >= id)) errs += s"query ${q.qid}: rank $i out of (dist, id) order"
      }
      if (id < 0 || id >= partOf.length || !parts.contains(partOf(id.toInt)))
        errs += s"query ${q.qid}: id $id not in a planned partition"
      else {
        val ed = Distances.euclidean(SeriesGen.local(Dataset, id, Workloads.DataSeed), q.query)
        if (ed != d) errs += s"query ${q.qid}: id $id distance $d, expected $ed"
      }
    }
    errs.result().take(3)
  }

  def partOf(l: Layout): Array[Int] = {
    val out = Array.fill(l.size)(-1)
    var i = 0
    while (i < l.size) { if (l.ids(i) >= 0 && l.ids(i) < l.size) out(l.ids(i).toInt) = l.parts(i); i += 1 }
    out
  }

  /** Canonical text of a skeleton (groups, centroids and every trie node,
    * children in pivot order), so two builds compare by structure.
    */
  def skeletonText(index: ClimberIndex): String = {
    val sb = new StringBuilder
    def node(n: TrieNode): Unit = {
      sb.append(s"(${n.nodeId},${n.pivot},${n.depth},${n.size},${n.leafPartition},")
        .append(n.partitions.mkString("[", ",", "]"))
      n.children.toSeq.sortBy(_._1).foreach { case (_, c) => node(c) }
      sb.append(')')
    }
    val sk = index.skeleton
    sb.append(s"${sk.numPartitions},${sk.capacity},${sk.decay};")
    sk.groups.foreach { g =>
      sb.append(s"${g.id}:${g.centroid.mkString(",")}:${g.defaultPartition}")
      node(g.root)
      sb.append(';')
    }
    sb.toString
  }
}
