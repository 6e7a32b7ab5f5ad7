//! Golden values recorded on the commit before the SHA-256 kernel, the
//! block loop and the HMAC key states changed (the scalar, copy-per-block,
//! pad-per-MAC implementation). Digests and signatures are wire and disk
//! formats: a request signed, a quorum certificate formed or a batch hashed
//! by an older build must mean the same thing to this one.

use iss_crypto::sha256::to_hex;
use iss_crypto::{
    batch_digest_uncached, request_digest_uncached, KeyPair, SignatureRegistry, ThresholdScheme,
};
use iss_types::{ClientId, NodeId, Request};

fn real_request() -> Request {
    let payload: Vec<u8> = (0..500usize).map(|i| (i * 7 + 3) as u8).collect();
    Request::new(ClientId(3), 17, payload)
}

#[test]
fn request_and_batch_digests_are_unchanged() {
    let real = real_request();
    let synthetic = Request::synthetic(ClientId(5), 9, 500);
    assert_eq!(
        to_hex(&request_digest_uncached(&real)),
        "5777616f3355952e05c90bc3aaf8033c2bb85ade7e27f3a31b35761c950b4663"
    );
    assert_eq!(
        to_hex(&request_digest_uncached(&synthetic)),
        "4dcaa86b1e147d6a0764e7b1cbfc676fcc071def29670308c8fda1c40c77e884"
    );
    let batch = [real, synthetic, Request::new(ClientId(0), 0, Vec::new())];
    assert_eq!(
        to_hex(&batch_digest_uncached(&batch)),
        "f9a75b43ef03d1af28db78a1846f9848b2c77d736cbc577a3d835b142878433a"
    );
    assert_eq!(
        to_hex(&batch_digest_uncached(&[])),
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc"
    );
}

#[test]
fn signatures_are_unchanged_and_still_verify() {
    let digest = request_digest_uncached(&real_request());
    let client = KeyPair::for_client(ClientId(3));
    assert_eq!(
        to_hex(&client.public().0),
        "be806a5e4122c034a665fae5032147f15972aa97c78bdf6ddb475fb3a7566199"
    );
    let client_sig = client.sign(&digest);
    assert_eq!(
        to_hex(client_sig.as_bytes()),
        "b517000d56e81659372b2e01a8d7ecc52a21593c2c884c6cd2748ebccdedc35a\
ddbcd095bb62cc6abbfb45cbcefc7ba3ba5d888aa0755222ba129ecffdd02026"
    );
    let node_sig = KeyPair::for_node(NodeId(2)).sign(b"view-change");
    assert_eq!(
        to_hex(node_sig.as_bytes()),
        "65bdd61570c964a946a00867fa03b9f93f6a74d13b36b061280d359b0eecd624\
8c2b99f130027e39767555f4d4b6ad7e322083c3dbda7fcdeb9fbd42eca718b7"
    );
    let registry = SignatureRegistry::with_processes(4, 4);
    registry
        .verify_client(ClientId(3), &digest, client_sig.as_bytes())
        .unwrap();
    registry
        .verify_node(NodeId(2), b"view-change", node_sig.as_bytes())
        .unwrap();
}

#[test]
fn threshold_shares_and_aggregates_are_unchanged() {
    let digest = request_digest_uncached(&real_request());
    let scheme = ThresholdScheme::new(4, 3, b"hotstuff-2-1").unwrap();
    assert_eq!(
        to_hex(&scheme.sign_share(NodeId(1), &digest).mac),
        "a015f8e68a21498be94fd79e735416abc814210c286c53988aeba08c4bf34114"
    );
    let shares: Vec<_> = (0..3)
        .map(|i| scheme.sign_share(NodeId(i), &digest))
        .collect();
    let aggregate = scheme.aggregate(&shares, &digest).unwrap();
    assert_eq!(
        to_hex(&aggregate.aggregate),
        "4e0a17f385c1392063f940f995e6a4cafe028635f154da9c2b59a25323afa714"
    );
    scheme.verify(&aggregate, &digest).unwrap();
}
