//! MRT record layer (RFC 6396): BGP4MP_MESSAGE_AS4 for updates,
//! TABLE_DUMP_V2 (PEER_INDEX_TABLE / RIB_IPV4_UNICAST) for RIB snapshots.

use crate::bgp::{encode_attrs, parse_attr_block, BgpMessage, PathAttributes};
use crate::wire::{
    get_prefix, get_u16, get_u32, get_u8, patch_u16_len, put_prefix, put_u16, put_u32, take, Error,
    Result,
};
use rrr_types::{Asn, Ipv4, Prefix};

const TYPE_TABLE_DUMP_V2: u16 = 13;
const TYPE_BGP4MP: u16 = 16;

const SUB_PEER_INDEX_TABLE: u16 = 1;
const SUB_RIB_IPV4_UNICAST: u16 = 2;
const SUB_BGP4MP_MESSAGE_AS4: u16 = 4;

const AFI_IPV4: u16 = 1;
/// Peer type flags: 4-byte ASN, IPv4 address.
const PEER_TYPE_AS4_IPV4: u8 = 0x02;

/// One RIB entry within a RIB_IPV4_UNICAST record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the preceding PEER_INDEX_TABLE.
    pub peer_index: u16,
    /// Originated time (seconds).
    pub originated: u32,
    pub attrs: PathAttributes,
}

/// A parsed MRT record (supported subset).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtRecord {
    /// BGP4MP / BGP4MP_MESSAGE_AS4.
    Bgp4mp {
        time: u32,
        peer_as: Asn,
        local_as: Asn,
        peer_ip: Ipv4,
        local_ip: Ipv4,
        msg: BgpMessage,
    },
    /// TABLE_DUMP_V2 / PEER_INDEX_TABLE.
    PeerIndexTable { collector_id: u32, peers: Vec<(Ipv4, Asn)> },
    /// TABLE_DUMP_V2 / RIB_IPV4_UNICAST.
    RibIpv4 { time: u32, seq: u32, prefix: Prefix, entries: Vec<RibEntry> },
}

/// Smallest encoded PEER_INDEX_TABLE peer (type, BGP id, IPv4, 4-byte AS)
/// and RIB entry (peer index, originated, attribute length): what a count
/// field is checked against before anything is reserved for it.
const MIN_PEER_BYTES: usize = 13;
const MIN_RIB_ENTRY_BYTES: usize = 8;

impl MrtRecord {
    /// Encodes the record with its MRT common header. The body is written
    /// in place behind a 12-byte placeholder that is patched once the body's
    /// length is known.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0; 12]);
        let (time, typ, sub) = match self {
            MrtRecord::Bgp4mp { time, peer_as, local_as, peer_ip, local_ip, msg } => {
                put_u32(buf, peer_as.value());
                put_u32(buf, local_as.value());
                put_u16(buf, 0); // interface index
                put_u16(buf, AFI_IPV4);
                put_u32(buf, peer_ip.value());
                put_u32(buf, local_ip.value());
                msg.encode(buf);
                (*time, TYPE_BGP4MP, SUB_BGP4MP_MESSAGE_AS4)
            }
            MrtRecord::PeerIndexTable { collector_id, peers } => {
                put_u32(buf, *collector_id);
                put_u16(buf, 0); // view name length (no view name)
                put_u16(buf, peers.len() as u16);
                for (ip, asn) in peers {
                    buf.push(PEER_TYPE_AS4_IPV4);
                    put_u32(buf, ip.value()); // peer BGP id
                    put_u32(buf, ip.value()); // peer IP
                    put_u32(buf, asn.value());
                }
                (0, TYPE_TABLE_DUMP_V2, SUB_PEER_INDEX_TABLE)
            }
            MrtRecord::RibIpv4 { time, seq, prefix, entries } => {
                put_u32(buf, *seq);
                put_prefix(buf, *prefix);
                put_u16(buf, entries.len() as u16);
                for e in entries {
                    put_u16(buf, e.peer_index);
                    put_u32(buf, e.originated);
                    let attr_len_pos = buf.len();
                    put_u16(buf, 0);
                    encode_attrs(buf, &e.attrs);
                    patch_u16_len(buf, attr_len_pos);
                }
                (*time, TYPE_TABLE_DUMP_V2, SUB_RIB_IPV4_UNICAST)
            }
        };
        let len = (buf.len() - start - 12) as u32;
        let header = &mut buf[start..start + 12];
        header[..4].copy_from_slice(&time.to_be_bytes());
        header[4..6].copy_from_slice(&typ.to_be_bytes());
        header[6..8].copy_from_slice(&sub.to_be_bytes());
        header[8..].copy_from_slice(&len.to_be_bytes());
    }

    /// Parses one record (header + body) off the front of `buf`.
    pub fn parse(buf: &mut &[u8]) -> Result<Self> {
        let time = get_u32(buf, "mrt timestamp")?;
        let typ = get_u16(buf, "mrt type")?;
        let sub = get_u16(buf, "mrt subtype")?;
        let len = get_u32(buf, "mrt length")? as usize;
        let mut body = take(buf, len, "mrt body")?;
        match (typ, sub) {
            (TYPE_BGP4MP, SUB_BGP4MP_MESSAGE_AS4) => {
                let peer_as = Asn(get_u32(&mut body, "peer as")?);
                let local_as = Asn(get_u32(&mut body, "local as")?);
                let _ifindex = get_u16(&mut body, "ifindex")?;
                let afi = get_u16(&mut body, "afi")?;
                if afi != AFI_IPV4 {
                    return Err(Error::Unsupported("afi", afi as u64));
                }
                let peer_ip = Ipv4(get_u32(&mut body, "peer ip")?);
                let local_ip = Ipv4(get_u32(&mut body, "local ip")?);
                let msg = BgpMessage::parse(&mut body)?;
                Ok(MrtRecord::Bgp4mp { time, peer_as, local_as, peer_ip, local_ip, msg })
            }
            (TYPE_TABLE_DUMP_V2, SUB_PEER_INDEX_TABLE) => {
                let collector_id = get_u32(&mut body, "collector id")?;
                let name_len = get_u16(&mut body, "view name length")? as usize;
                take(&mut body, name_len, "view name")?;
                let count = get_u16(&mut body, "peer count")? as usize;
                // The count is the wire's claim; reserve for the peers the
                // body can actually hold.
                let mut peers = Vec::with_capacity(count.min(body.len() / MIN_PEER_BYTES));
                for _ in 0..count {
                    let ptype = get_u8(&mut body, "peer type")?;
                    if ptype != PEER_TYPE_AS4_IPV4 {
                        return Err(Error::Unsupported("peer type", ptype as u64));
                    }
                    let _bgp_id = get_u32(&mut body, "peer bgp id")?;
                    let ip = Ipv4(get_u32(&mut body, "peer ip")?);
                    let asn = Asn(get_u32(&mut body, "peer as")?);
                    peers.push((ip, asn));
                }
                Ok(MrtRecord::PeerIndexTable { collector_id, peers })
            }
            (TYPE_TABLE_DUMP_V2, SUB_RIB_IPV4_UNICAST) => {
                let seq = get_u32(&mut body, "rib seq")?;
                let prefix = get_prefix(&mut body, "rib prefix")?;
                let count = get_u16(&mut body, "rib entry count")? as usize;
                let mut entries = Vec::with_capacity(count.min(body.len() / MIN_RIB_ENTRY_BYTES));
                for _ in 0..count {
                    let peer_index = get_u16(&mut body, "rib peer index")?;
                    let originated = get_u32(&mut body, "rib originated")?;
                    let alen = get_u16(&mut body, "rib attr length")? as usize;
                    let attrs = parse_attr_block(take(&mut body, alen, "rib attrs")?)?;
                    entries.push(RibEntry { peer_index, originated, attrs });
                }
                Ok(MrtRecord::RibIpv4 { time, seq, prefix, entries })
            }
            _ => Err(Error::Unsupported("mrt type/subtype", ((typ as u64) << 16) | sub as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{AsPath, Community};

    fn roundtrip(r: &MrtRecord) -> MrtRecord {
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut rd = &buf[..];
        let out = MrtRecord::parse(&mut rd).expect("roundtrip parse");
        assert_eq!(rd.len(), 0);
        out
    }

    #[test]
    fn bgp4mp_roundtrip() {
        let r = MrtRecord::Bgp4mp {
            time: 1_600_000_000,
            peer_as: Asn(13030),
            local_as: Asn(64_512),
            peer_ip: Ipv4::new(195, 66, 224, 175),
            local_ip: Ipv4::new(195, 66, 224, 1),
            msg: BgpMessage::announce(
                vec!["200.61.128.0/19".parse().expect("prefix")],
                AsPath::from_asns([13030, 1299, 2914, 18747]),
                Ipv4::new(195, 66, 224, 175),
                vec![Community::new(13030, 51701)],
            ),
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn peer_index_roundtrip() {
        let r = MrtRecord::PeerIndexTable {
            collector_id: 7,
            peers: vec![(Ipv4::new(10, 0, 0, 1), Asn(100)), (Ipv4::new(10, 0, 0, 2), Asn(200))],
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn rib_roundtrip() {
        let r = MrtRecord::RibIpv4 {
            time: 55,
            seq: 3,
            prefix: "10.0.0.0/16".parse().expect("prefix"),
            entries: vec![RibEntry {
                peer_index: 1,
                originated: 42,
                attrs: PathAttributes {
                    origin: 0,
                    as_path: AsPath::from_asns([100, 200, 300]),
                    next_hop: Some(Ipv4::new(10, 0, 0, 1)),
                    communities: vec![Community::new(100, 5)],
                },
            }],
        };
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn unsupported_type_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0);
        put_u16(&mut buf, 99);
        put_u16(&mut buf, 1);
        put_u32(&mut buf, 0);
        assert!(matches!(
            MrtRecord::parse(&mut &buf[..]),
            Err(Error::Unsupported("mrt type/subtype", _))
        ));
    }

    #[test]
    fn truncated_body_rejected() {
        let r = MrtRecord::PeerIndexTable { collector_id: 1, peers: vec![] };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let mut rd = &buf[..buf.len() - 1];
        // With an empty peer list the body is 8 bytes; cut one off.
        assert!(MrtRecord::parse(&mut rd).is_err());
    }
}
