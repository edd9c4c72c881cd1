//! BGP-4 UPDATE message encoding/parsing (RFC 4271, 4-byte ASNs per
//! RFC 6793).

use crate::wire::{
    get_prefix, get_u16, get_u32, get_u8, patch_u16_len, put_prefix, put_u16, put_u32, take, Error,
    Result,
};
use rrr_types::{AsPath, Asn, Community, Ipv4, Prefix};

/// BGP message type code for UPDATE.
pub const MSG_UPDATE: u8 = 2;

const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_COMMUNITIES: u8 = 8;

const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_EXT_LEN: u8 = 0x10;

const SEG_AS_SEQUENCE: u8 = 2;

/// Parsed path attributes (the supported subset).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathAttributes {
    pub origin: u8,
    pub as_path: AsPath,
    pub next_hop: Option<Ipv4>,
    pub communities: Vec<Community>,
}

/// A BGP UPDATE message.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BgpMessage {
    pub withdrawn: Vec<Prefix>,
    pub attrs: PathAttributes,
    pub nlri: Vec<Prefix>,
}

impl BgpMessage {
    /// An announcement of `nlri` with the given path/communities.
    pub fn announce(
        nlri: Vec<Prefix>,
        path: AsPath,
        next_hop: Ipv4,
        communities: Vec<Community>,
    ) -> Self {
        BgpMessage {
            withdrawn: Vec::new(),
            attrs: PathAttributes {
                origin: 0,
                as_path: path,
                next_hop: Some(next_hop),
                communities,
            },
            nlri,
        }
    }

    /// A withdrawal of `withdrawn`.
    pub fn withdraw(withdrawn: Vec<Prefix>) -> Self {
        BgpMessage { withdrawn, attrs: PathAttributes::default(), nlri: Vec::new() }
    }

    /// Encodes the full BGP message (marker, length, type, body).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.extend_from_slice(&[0xFF; 16]); // marker
        put_u16(buf, 0); // length placeholder
        buf.push(MSG_UPDATE);

        // Withdrawn routes.
        let wr_len_pos = buf.len();
        put_u16(buf, 0);
        for &p in &self.withdrawn {
            put_prefix(buf, p);
        }
        patch_u16_len(buf, wr_len_pos);

        // Path attributes.
        let pa_len_pos = buf.len();
        put_u16(buf, 0);
        if !self.nlri.is_empty() {
            encode_attrs(buf, &self.attrs);
        }
        patch_u16_len(buf, pa_len_pos);

        // NLRI.
        for &p in &self.nlri {
            put_prefix(buf, p);
        }

        let total = (buf.len() - start) as u16;
        buf[start + 16..start + 18].copy_from_slice(&total.to_be_bytes());
    }

    /// Parses a full BGP message off the front of `buf`.
    pub fn parse(buf: &mut &[u8]) -> Result<Self> {
        if buf.len() < 19 {
            return Err(Error::Truncated("bgp header"));
        }
        if take(buf, 16, "bgp header")? != [0xFF; 16] {
            return Err(Error::Malformed("bgp marker"));
        }
        let total = get_u16(buf, "bgp length")? as usize;
        if total < 19 {
            return Err(Error::BadLength("bgp length"));
        }
        let typ = get_u8(buf, "bgp type")?;
        if typ != MSG_UPDATE {
            return Err(Error::Unsupported("bgp message type", typ as u64));
        }
        let mut body = take(buf, total - 19, "bgp body")?;

        // Withdrawn routes.
        let wr_len = get_u16(&mut body, "withdrawn length")? as usize;
        let mut wr = take(&mut body, wr_len, "withdrawn routes")
            .map_err(|_| Error::BadLength("withdrawn routes"))?;
        let mut withdrawn = Vec::new();
        while !wr.is_empty() {
            withdrawn.push(get_prefix(&mut wr, "withdrawn prefix")?);
        }

        // Path attributes.
        let pa_len = get_u16(&mut body, "attributes length")? as usize;
        let pa = take(&mut body, pa_len, "path attributes")
            .map_err(|_| Error::BadLength("path attributes"))?;
        let attrs = parse_attr_block(pa)?;

        // NLRI: rest of the body.
        let mut nlri = Vec::new();
        while !body.is_empty() {
            nlri.push(get_prefix(&mut body, "nlri prefix")?);
        }

        Ok(BgpMessage { withdrawn, attrs, nlri })
    }
}

/// Every attribute body's length is known before it is written, so the
/// header goes out first and nothing is staged.
fn put_attr_header(buf: &mut Vec<u8>, typ: u8, flags: u8, len: usize) {
    if len > 255 {
        buf.extend_from_slice(&[flags | FLAG_EXT_LEN, typ]);
        put_u16(buf, len as u16);
    } else {
        buf.extend_from_slice(&[flags, typ, len as u8]);
    }
}

/// Encodes an attribute block: what an UPDATE carries between its
/// attribute-length field and its NLRI, and what a TABLE_DUMP_V2 RIB entry
/// embeds.
pub(crate) fn encode_attrs(buf: &mut Vec<u8>, attrs: &PathAttributes) {
    put_attr_header(buf, ATTR_ORIGIN, FLAG_TRANSITIVE, 1);
    buf.push(attrs.origin);

    let hops = attrs.as_path.len();
    put_attr_header(buf, ATTR_AS_PATH, FLAG_TRANSITIVE, if hops == 0 { 0 } else { 2 + 4 * hops });
    if hops != 0 {
        buf.push(SEG_AS_SEQUENCE);
        buf.push(hops as u8);
        for a in attrs.as_path.iter() {
            put_u32(buf, a.value());
        }
    }

    if let Some(nh) = attrs.next_hop {
        put_attr_header(buf, ATTR_NEXT_HOP, FLAG_TRANSITIVE, 4);
        put_u32(buf, nh.value());
    }

    if !attrs.communities.is_empty() {
        put_attr_header(
            buf,
            ATTR_COMMUNITIES,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            4 * attrs.communities.len(),
        );
        for c in &attrs.communities {
            put_u32(buf, c.0);
        }
    }
}

/// Parses an attribute block (an UPDATE's, or the one embedded in a
/// TABLE_DUMP_V2 RIB entry). The two `Vec`s it fills are the only
/// allocations; both are sized by bytes present, not by a count field.
pub fn parse_attr_block(mut buf: &[u8]) -> Result<PathAttributes> {
    let mut attrs = PathAttributes::default();
    while !buf.is_empty() {
        let flags = get_u8(&mut buf, "attr flags")?;
        let typ = get_u8(&mut buf, "attr type")?;
        let len = if flags & FLAG_EXT_LEN != 0 {
            get_u16(&mut buf, "attr ext length")? as usize
        } else {
            get_u8(&mut buf, "attr length")? as usize
        };
        let mut body = take(&mut buf, len, "attr body")?;
        match typ {
            ATTR_ORIGIN => attrs.origin = get_u8(&mut body, "origin")?,
            ATTR_AS_PATH => {
                let mut asns = Vec::with_capacity(len / 4);
                while !body.is_empty() {
                    let seg_type = get_u8(&mut body, "as_path segment type")?;
                    if seg_type != SEG_AS_SEQUENCE {
                        return Err(Error::Unsupported("as_path segment", seg_type as u64));
                    }
                    let n = get_u8(&mut body, "as_path segment length")? as usize;
                    for _ in 0..n {
                        asns.push(Asn(get_u32(&mut body, "as_path asn")?));
                    }
                }
                attrs.as_path = AsPath(asns);
            }
            ATTR_NEXT_HOP => attrs.next_hop = Some(Ipv4(get_u32(&mut body, "next_hop")?)),
            ATTR_COMMUNITIES => {
                if len % 4 != 0 {
                    return Err(Error::BadLength("communities"));
                }
                attrs.communities.reserve(len / 4);
                while !body.is_empty() {
                    attrs.communities.push(Community(get_u32(&mut body, "community")?));
                }
            }
            // Unknown attributes are skipped (body already consumed).
            _ => {}
        }
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &BgpMessage) -> BgpMessage {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        let mut rd = &buf[..];
        let out = BgpMessage::parse(&mut rd).expect("roundtrip parse");
        assert_eq!(rd.len(), 0, "trailing bytes");
        out
    }

    #[test]
    fn announce_roundtrip() {
        let msg = BgpMessage::announce(
            vec!["200.61.128.0/19".parse().expect("prefix")],
            AsPath::from_asns([13030, 1299, 2914, 18747]),
            Ipv4::new(195, 66, 224, 175),
            vec![Community::new(13030, 2), Community::new(13030, 51701)],
        );
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn withdraw_roundtrip() {
        let msg = BgpMessage::withdraw(vec![
            "10.0.0.0/8".parse().expect("prefix"),
            "192.0.2.0/24".parse().expect("prefix"),
        ]);
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn empty_as_path_announce() {
        let msg = BgpMessage::announce(
            vec!["10.0.0.0/16".parse().expect("prefix")],
            AsPath::new(),
            Ipv4::new(1, 1, 1, 1),
            vec![],
        );
        assert_eq!(roundtrip(&msg), msg);
    }

    #[test]
    fn bad_marker_rejected() {
        let msg = BgpMessage::withdraw(vec!["10.0.0.0/8".parse().expect("prefix")]);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf[0] = 0;
        assert_eq!(BgpMessage::parse(&mut &buf[..]), Err(Error::Malformed("bgp marker")));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let msg = BgpMessage::announce(
            vec!["10.0.0.0/16".parse().expect("prefix")],
            AsPath::from_asns([1, 2, 3]),
            Ipv4::new(1, 1, 1, 1),
            vec![Community::new(1, 2)],
        );
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut rd = &buf[..cut];
            assert!(BgpMessage::parse(&mut rd).is_err(), "cut at {cut} parsed");
        }
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary(
            nlri in proptest::collection::vec((any::<u32>(), 8u8..=24), 0..5),
            wdr in proptest::collection::vec((any::<u32>(), 8u8..=24), 0..5),
            path in proptest::collection::vec(any::<u32>(), 0..12),
            comms in proptest::collection::vec(any::<u32>(), 0..12),
        ) {
            let nlri: Vec<Prefix> = nlri.into_iter().map(|(a, l)| Prefix::new(Ipv4(a), l)).collect();
            let withdrawn: Vec<Prefix> = wdr.into_iter().map(|(a, l)| Prefix::new(Ipv4(a), l)).collect();
            let msg = BgpMessage {
                withdrawn,
                attrs: if nlri.is_empty() {
                    PathAttributes::default()
                } else {
                    PathAttributes {
                        origin: 0,
                        as_path: AsPath::from_asns(path),
                        next_hop: Some(Ipv4::new(10, 0, 0, 1)),
                        communities: comms.into_iter().map(Community).collect(),
                    }
                },
                nlri,
            };
            prop_assert_eq!(roundtrip(&msg), msg);
        }
    }
}
