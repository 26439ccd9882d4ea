//! Traffic classes: the paper's Figure 8 breaks one iteration's
//! communication into "embeds & grads", "keys & clocks" and "All-Reduce";
//! Figure 1 reports the communication share of epoch time.
//!
//! The charge path (`hetgmp-core`) records each class's bytes and messages
//! into the charging worker's telemetry recorder as
//! `traffic.bytes.<suffix>` / `traffic.messages.<suffix>`.

/// Traffic classes matching the paper's Figure 8 legend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// Embedding vectors and their gradients.
    EmbedData,
    /// Sparse indices and clock metadata.
    KeysClocks,
    /// Dense-parameter AllReduce payload.
    AllReduce,
}

const NUM_CLASSES: usize = 3;

impl TrafficClass {
    /// All classes in display order.
    pub fn all() -> [TrafficClass; NUM_CLASSES] {
        [
            TrafficClass::EmbedData,
            TrafficClass::KeysClocks,
            TrafficClass::AllReduce,
        ]
    }

    /// Suffix used in telemetry metric names (`traffic.bytes.<suffix>`).
    pub fn metric_suffix(self) -> &'static str {
        match self {
            TrafficClass::EmbedData => "embed_data",
            TrafficClass::KeysClocks => "keys_clocks",
            TrafficClass::AllReduce => "allreduce",
        }
    }

    /// Full metric name for bytes of this class.
    pub fn bytes_metric(self) -> &'static str {
        match self {
            TrafficClass::EmbedData => "traffic.bytes.embed_data",
            TrafficClass::KeysClocks => "traffic.bytes.keys_clocks",
            TrafficClass::AllReduce => "traffic.bytes.allreduce",
        }
    }

    /// Full metric name for message count of this class.
    pub fn messages_metric(self) -> &'static str {
        match self {
            TrafficClass::EmbedData => "traffic.messages.embed_data",
            TrafficClass::KeysClocks => "traffic.messages.keys_clocks",
            TrafficClass::AllReduce => "traffic.messages.allreduce",
        }
    }
}
