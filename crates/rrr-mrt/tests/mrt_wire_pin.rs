//! The MRT byte format, pinned. `PINNED_HEX` was generated before the
//! codecs were rewritten over borrowed slices; the encoders may not move a
//! byte of it, and the decoders must give a typed verdict on every prefix
//! and every single-byte mutation of it.

use proptest::prelude::*;
use rrr_mrt::{
    record_to_updates, BgpMessage, Error, MrtFileWriter, MrtRecord, PathAttributes, RibEntry,
    VpDirectory,
};
use rrr_types::{AsPath, Asn, BgpElem, BgpUpdate, Community, Ipv4, Prefix, Timestamp, VpId};

const PINNED_HEX: &str = concat!(
    "00000000000d00010000002f000000000000000302ac100000ac100000000032e602ac100001ac10",
    "000100000d1c02ac100102ac1001020000fde75f5e1000001000040000005a000032e60000fc0000",
    "000001ac100000ac10fffeffffffffffffffffffffffffffffffff0046020000002b400101004002",
    "120204000032e60000051300000b620000493b400304ac100000c0080832e6000232e6c9f513c83d",
    "805f5e1064001000040000006400000d1c0000fc0000000001ac100001ac10fffeffffffffffffff",
    "ffffffffffffffffff0050020004100a0900002b400101004002120204000032e60000051300000b",
    "620000493b400304ac100001c0080832e6000232e6c9f5100a010f0a0218c000025f5e10c8001000",
    "040000002f0000fde70000fc0000000001ac100102ac10fffeffffffffffffffffffffffffffffff",
    "ff001b02000413c83d8000005f5e112c000d0002000002aa00000007090a00000200005f4ecdc000",
    "2b400101004002120204000032e60000051300000b620000493b400304ac100000c0080832e60002",
    "32e6c9f500025f4ecdc10266400101025002011a02460000fde80000fde90000fdea0000fdeb0000",
    "fdec0000fded0000fdee0000fdef0000fdf00000fdf10000fdf20000fdf30000fdf40000fdf50000",
    "fdf60000fdf70000fdf80000fdf90000fdfa0000fdfb0000fdfc0000fdfd0000fdfe0000fdff0000",
    "fe000000fe010000fe020000fe030000fe040000fe050000fe060000fe070000fe080000fe090000",
    "fe0a0000fe0b0000fe0c0000fe0d0000fe0e0000fe0f0000fe100000fe110000fe120000fe130000",
    "fe140000fe150000fe160000fe170000fe180000fe190000fe1a0000fe1b0000fe1c0000fe1d0000",
    "fe1e0000fe1f0000fe200000fe210000fe220000fe230000fe240000fe250000fe260000fe270000",
    "fe280000fe290000fe2a0000fe2b0000fe2c0000fe2dd00801400d1c00000d1c00010d1c00020d1c",
    "00030d1c00040d1c00050d1c00060d1c00070d1c00080d1c00090d1c000a0d1c000b0d1c000c0d1c",
    "000d0d1c000e0d1c000f0d1c00100d1c00110d1c00120d1c00130d1c00140d1c00150d1c00160d1c",
    "00170d1c00180d1c00190d1c001a0d1c001b0d1c001c0d1c001d0d1c001e0d1c001f0d1c00200d1c",
    "00210d1c00220d1c00230d1c00240d1c00250d1c00260d1c00270d1c00280d1c00290d1c002a0d1c",
    "002b0d1c002c0d1c002d0d1c002e0d1c002f0d1c00300d1c00310d1c00320d1c00330d1c00340d1c",
    "00350d1c00360d1c00370d1c00380d1c00390d1c003a0d1c003b0d1c003c0d1c003d0d1c003e0d1c",
    "003f0d1c00400d1c00410d1c00420d1c00430d1c00440d1c00450d1c00460d1c00470d1c00480d1c",
    "00490d1c004a0d1c004b0d1c004c0d1c004d0d1c004e0d1c004f",
);

fn prefix(s: &str) -> Prefix {
    s.parse().expect("prefix literal")
}

fn directory() -> VpDirectory {
    let mut dir = VpDirectory::default();
    for (vp, asn) in [(0, 13030), (1, 3356), (258, 64_999)] {
        dir.register(VpId(vp), Asn(asn));
    }
    dir
}

fn path() -> AsPath {
    AsPath::from_asns([13030, 1299, 2914, 18747])
}

fn communities() -> Vec<Community> {
    vec![Community::new(13030, 2), Community::new(13030, 51701)]
}

fn multi_nlri_record(dir: &VpDirectory) -> MrtRecord {
    let (peer_ip, peer_as) = dir.peer_of(VpId(1));
    let mut msg = BgpMessage::announce(
        vec![prefix("10.1.0.0/16"), prefix("10.2.0.0/15"), prefix("192.0.2.0/24")],
        path(),
        peer_ip,
        communities(),
    );
    msg.withdrawn = vec![prefix("10.9.0.0/16"), prefix("0.0.0.0/0")];
    MrtRecord::Bgp4mp {
        time: 1_600_000_100,
        peer_as,
        local_as: Asn(64_512),
        peer_ip,
        local_ip: Ipv4::new(172, 16, 255, 254),
        msg,
    }
}

/// A peer table, an announce, a multi-NLRI announce (with withdrawn
/// routes), a withdraw and a RIB record whose second entry needs the
/// extended attribute length (70-hop path, 80 communities).
fn pinned_stream() -> Vec<u8> {
    let dir = directory();
    let mut w = MrtFileWriter::new(Vec::new());
    w.write_record(&dir.peer_index_record()).expect("in-memory write");
    w.write_update(
        &dir,
        &BgpUpdate {
            time: Timestamp(1_600_000_000),
            vp: VpId(0),
            prefix: prefix("200.61.128.0/19"),
            elem: BgpElem::Announce { path: path(), communities: communities() },
        },
    )
    .expect("in-memory write");
    w.write_record(&multi_nlri_record(&dir)).expect("in-memory write");
    w.write_update(
        &dir,
        &BgpUpdate {
            time: Timestamp(1_600_000_200),
            vp: VpId(258),
            prefix: prefix("200.61.128.0/19"),
            elem: BgpElem::Withdraw,
        },
    )
    .expect("in-memory write");
    w.write_record(&MrtRecord::RibIpv4 {
        time: 1_600_000_300,
        seq: 7,
        prefix: prefix("10.0.0.0/9"),
        entries: vec![
            RibEntry {
                peer_index: 0,
                originated: 1_599_000_000,
                attrs: PathAttributes {
                    origin: 0,
                    as_path: path(),
                    next_hop: Some(Ipv4::new(172, 16, 0, 0)),
                    communities: communities(),
                },
            },
            RibEntry {
                peer_index: 2,
                originated: 1_599_000_001,
                attrs: PathAttributes {
                    origin: 2,
                    as_path: AsPath::from_asns((0..70).map(|i| 65_000 + i)),
                    next_hop: None,
                    communities: (0..80).map(|i| Community::new(3356, i)).collect(),
                },
            },
        ],
    })
    .expect("in-memory write");
    assert_eq!(w.records_written(), 5);
    w.finish().expect("flush")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses records off the front of `bytes` until it is empty or one fails.
fn parse_all(mut bytes: &[u8]) -> (Vec<MrtRecord>, Option<Error>) {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        match MrtRecord::parse(&mut bytes) {
            Ok(r) => out.push(r),
            Err(e) => return (out, Some(e)),
        }
    }
    (out, None)
}

#[test]
fn writer_bytes_are_pinned() {
    let bytes = pinned_stream();
    assert_eq!(hex(&bytes), PINNED_HEX, "the encoder moved a byte");
    let (records, err) = parse_all(&bytes);
    assert_eq!(err, None);
    assert_eq!(records.len(), 5);
    // Decode → encode is the identity on this stream.
    let mut again = Vec::new();
    for r in &records {
        r.encode(&mut again);
    }
    assert_eq!(again, bytes);
}

#[test]
fn every_prefix_of_the_stream_is_records_then_truncated() {
    let bytes = pinned_stream();
    let (full, _) = parse_all(&bytes);
    let mut boundaries = vec![0usize];
    for r in &full {
        let mut one = Vec::new();
        r.encode(&mut one);
        boundaries.push(boundaries.last().expect("seeded") + one.len());
    }
    for cut in 0..=bytes.len() {
        let (got, err) = parse_all(&bytes[..cut]);
        let whole = boundaries.iter().rposition(|&b| b <= cut).expect("0 is a boundary");
        assert_eq!(got, full[..whole], "cut {cut}");
        if boundaries[whole] == cut {
            assert_eq!(err, None, "cut {cut} is a record boundary");
        } else {
            assert!(matches!(err, Some(Error::Truncated(_))), "cut {cut}: {err:?}");
        }
    }
}

proptest! {
    /// Any single byte set to any value: no panic, and whatever still
    /// parses is a record the encoder accepts and the decoder reads back.
    #[test]
    fn single_byte_mutations_get_a_typed_verdict(at in any::<u32>(), to in any::<u8>()) {
        let mut bytes = pinned_stream();
        let at = at as usize % bytes.len();
        bytes[at] = to;
        let (records, _typed_error_or_none) = parse_all(&bytes);
        let mut again = Vec::new();
        for r in &records {
            r.encode(&mut again);
        }
        let (back, err) = parse_all(&again);
        prop_assert_eq!(err, None);
        prop_assert_eq!(back.len(), records.len());
    }
}

#[test]
fn multi_nlri_record_expands_in_wire_order() {
    let dir = directory();
    let time = Timestamp(1_600_000_100);
    let announce = |p: &str| BgpUpdate {
        time,
        vp: VpId(1),
        prefix: prefix(p),
        elem: BgpElem::Announce { path: path(), communities: communities() },
    };
    let withdraw =
        |p: &str| BgpUpdate { time, vp: VpId(1), prefix: prefix(p), elem: BgpElem::Withdraw };
    let want = vec![
        withdraw("10.9.0.0/16"),
        withdraw("0.0.0.0/0"),
        announce("10.1.0.0/16"),
        announce("10.2.0.0/15"),
        announce("192.0.2.0/24"),
    ];
    let mut got = Vec::new();
    record_to_updates(&dir, multi_nlri_record(&dir), |u| got.push(u));
    assert_eq!(got, want);
}
