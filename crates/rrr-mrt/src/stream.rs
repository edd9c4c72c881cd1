//! The bridge between the simulator's [`BgpUpdate`] records and
//! wire-format MRT: the collector peer table and the BGP4MP → update
//! decode. The record reader/writer pair lives in [`crate::bgpstream`].

use crate::mrt::MrtRecord;
use rrr_types::{BgpElem, BgpUpdate, Ipv4, Timestamp, VpId};
use std::collections::{BTreeMap, HashMap};

/// Maps the simulator's vantage points to (peer IP, peer AS) pairs, as a
/// collector's peer table would.
#[derive(Debug, Clone, Default)]
pub struct VpDirectory {
    /// Indexed by VP id, so registration order is irrelevant.
    peers: BTreeMap<u32, (Ipv4, rrr_types::Asn)>,
    by_ip: HashMap<Ipv4, VpId>,
}

impl VpDirectory {
    /// Registers a vantage point; peer addresses are synthesized in
    /// 172.16.0.0/12 (collector-LAN style) from the VP id itself, so VPs
    /// may arrive in any order — out-of-order registration used to corrupt
    /// `peer_of` silently in release builds.
    pub fn register(&mut self, vp: VpId, asn: rrr_types::Asn) {
        let ip = Ipv4::new(172, 16, (vp.0 >> 8) as u8, (vp.0 & 0xFF) as u8);
        self.peers.insert(vp.0, (ip, asn));
        self.by_ip.insert(ip, vp);
    }

    /// The (peer IP, peer AS) of a registered VP.
    ///
    /// # Panics
    /// Panics if `vp` was never registered.
    pub fn peer_of(&self, vp: VpId) -> (Ipv4, rrr_types::Asn) {
        self.peers[&vp.0]
    }

    pub fn vp_of(&self, peer_ip: Ipv4) -> Option<VpId> {
        self.by_ip.get(&peer_ip).copied()
    }

    pub fn len(&self) -> usize {
        self.peers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The PEER_INDEX_TABLE record for this directory, peers in VP-id
    /// order.
    pub fn peer_index_record(&self) -> MrtRecord {
        MrtRecord::PeerIndexTable { collector_id: 0, peers: self.peers.values().copied().collect() }
    }
}

/// Decodes a BGP4MP record back to simulator updates, handing each to
/// `sink` in wire order (one per withdrawn prefix, then one per NLRI) and
/// resolving the peer via the directory. The record is consumed: its path
/// and communities move into the last NLRI's update, so the single-NLRI
/// record every feed is made of clones nothing. Non-update records and
/// unknown peers yield nothing.
pub fn record_to_updates(dir: &VpDirectory, r: MrtRecord, mut sink: impl FnMut(BgpUpdate)) {
    let MrtRecord::Bgp4mp { time, peer_ip, msg, .. } = r else { return };
    let Some(vp) = dir.vp_of(peer_ip) else { return };
    let time = Timestamp(time as u64);
    for prefix in msg.withdrawn {
        sink(BgpUpdate { time, vp, prefix, elem: BgpElem::Withdraw });
    }
    let Some((&last, rest)) = msg.nlri.split_last() else { return };
    let (path, communities) = (msg.attrs.as_path, msg.attrs.communities);
    for &prefix in rest {
        let elem = BgpElem::Announce { path: path.clone(), communities: communities.clone() };
        sink(BgpUpdate { time, vp, prefix, elem });
    }
    sink(BgpUpdate { time, vp, prefix: last, elem: BgpElem::Announce { path, communities } });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bgpstream::{MrtFileReader, MrtFileWriter};
    use rrr_types::{AsPath, Asn, Community};

    fn directory(n: u32) -> VpDirectory {
        let mut d = VpDirectory::default();
        for i in 0..n {
            d.register(VpId(i), Asn(100 + i));
        }
        d
    }

    fn sample_updates(dir: &VpDirectory) -> Vec<BgpUpdate> {
        let mut out = Vec::new();
        for i in 0..dir.len() as u32 {
            out.push(BgpUpdate {
                time: Timestamp(1000 + i as u64),
                vp: VpId(i),
                prefix: format!("10.{i}.0.0/16").parse().expect("prefix"),
                elem: BgpElem::Announce {
                    path: AsPath::from_asns([100 + i, 200, 300]),
                    communities: vec![Community::new(200, 50_000 + i)],
                },
            });
        }
        out.push(BgpUpdate {
            time: Timestamp(2000),
            vp: VpId(0),
            prefix: "10.0.0.0/16".parse().expect("prefix"),
            elem: BgpElem::Withdraw,
        });
        out
    }

    #[test]
    fn full_pipeline_roundtrip() {
        let dir = directory(4);
        let updates = sample_updates(&dir);
        let mut w = MrtFileWriter::new(Vec::new());
        w.write_record(&dir.peer_index_record()).expect("in-memory write");
        for u in &updates {
            w.write_update(&dir, u).expect("in-memory write");
        }
        let bytes = w.finish().expect("flush");

        let mut got = Vec::new();
        let mut peer_tables = 0;
        for rec in MrtFileReader::new(&bytes[..]) {
            let rec = rec.expect("valid stream");
            if matches!(rec, MrtRecord::PeerIndexTable { .. }) {
                peer_tables += 1;
            }
            record_to_updates(&dir, rec, |u| got.push(u));
        }
        assert_eq!(peer_tables, 1);
        assert_eq!(got, updates);
    }

    #[test]
    fn directory_lookup() {
        let dir = directory(300);
        let (ip, asn) = dir.peer_of(VpId(259));
        assert_eq!(asn, Asn(359));
        assert_eq!(dir.vp_of(ip), Some(VpId(259)));
        assert_eq!(dir.vp_of(Ipv4::new(1, 2, 3, 4)), None);
        // 259 = 0x103 → 172.16.1.3
        assert_eq!(ip, Ipv4::new(172, 16, 1, 3));
    }

    #[test]
    fn directory_out_of_order_registration() {
        let mut shuffled = VpDirectory::default();
        for i in [3u32, 0, 2, 1] {
            shuffled.register(VpId(i), Asn(100 + i));
        }
        let ordered = directory(4);
        assert_eq!(shuffled.len(), 4);
        for i in 0..4u32 {
            assert_eq!(shuffled.peer_of(VpId(i)), ordered.peer_of(VpId(i)));
            let (ip, _) = shuffled.peer_of(VpId(i));
            assert_eq!(shuffled.vp_of(ip), Some(VpId(i)));
        }
        // The peer index table is emitted in VP-id order either way.
        assert_eq!(shuffled.peer_index_record(), ordered.peer_index_record());
    }

    #[test]
    fn reader_stops_on_garbage() {
        let dir = directory(1);
        let mut w = MrtFileWriter::new(Vec::new());
        w.write_update(&dir, &sample_updates(&dir)[0]).expect("in-memory write");
        let mut bytes = w.finish().expect("flush");
        bytes.extend_from_slice(&[1, 2, 3]); // trailing garbage
        let results: Vec<_> = MrtFileReader::new(&bytes[..]).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert!(results[1].is_err());
    }

    #[test]
    fn unknown_peer_ignored() {
        let dir = directory(1);
        let other = directory(2);
        let u = &sample_updates(&other)[1]; // vp 1, not in dir
        let mut w = MrtFileWriter::new(Vec::new());
        w.write_update(&other, u).expect("in-memory write");
        let bytes = w.finish().expect("flush");
        let rec = MrtFileReader::new(&bytes[..]).next().expect("one record").expect("valid");
        record_to_updates(&dir, rec, |u| panic!("unknown peer decoded to {u:?}"));
    }
}
