package repro.stream

/** One element of a fully dynamic bipartite graph stream.
  *
  * @param user   user id (left node)
  * @param item   item id (right node)
  * @param insert true for a subscription ("+"), false for an
  *               unsubscription ("−")
  * @param time   1-based discrete arrival time within the stream
  */
final case class EdgeEvent(user: Long, item: Long, insert: Boolean, time: Long)
