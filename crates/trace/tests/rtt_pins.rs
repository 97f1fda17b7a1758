//! RTT pricing pins: the Atlas-shaped JSON of a few fixed flows, one
//! record each, with every RTT printed at full `f64` precision.
//!
//! The report gate catches a moved figure; these catch a moved RTT, by
//! one bit, in a unit test. The flows cover a private CPE gateway, lost
//! hops, an aborted path and a destination reply, on the Tiny world of
//! seed 51. Re-pin only when the RTT model is meant to change.

use routergeo_trace::{ArkCampaign, ArkConfig, AtlasBuiltins, AtlasConfig, Topology};
use routergeo_world::{World, WorldConfig};

/// `(index into AtlasBuiltins::run, JSON)`.
const ATLAS_PINS: [(usize, &str); 2] = [
    (
        6,
        r#"{"prb_id":1,"src_addr":"240.0.0.1","dst_addr":"100.66.0.53","type":"traceroute","result":[{"hop":1,"result":[{"from":"192.168.255.1","rtt":0.32572528981168314}]},{"hop":2,"result":[{"from":"31.3.64.4","rtt":0.5705400702135857}]},{"hop":3,"result":[{"from":"31.0.40.2","rtt":0.4365755266973022}]},{"hop":4,"result":[{"x":"*"}]},{"hop":5,"result":[{"x":"*"}]},{"hop":6,"result":[{"x":"*"}]},{"hop":7,"result":[{"x":"*"}]},{"hop":8,"result":[{"from":"31.0.16.3","rtt":51.36675701400841}]}],"destination_replied":false}"#,
    ),
    (
        7,
        r#"{"prb_id":1,"src_addr":"240.0.0.1","dst_addr":"100.67.0.53","type":"traceroute","result":[{"hop":1,"result":[{"from":"192.168.255.1","rtt":0.526598417965425}]},{"hop":2,"result":[{"x":"*"}]},{"hop":3,"result":[{"from":"31.0.31.1","rtt":1.9135988684715666}]},{"hop":4,"result":[{"from":"31.0.3.8","rtt":8.289069067253186}]},{"hop":5,"result":[{"from":"31.1.166.2","rtt":35.44218920424201}]},{"hop":6,"result":[{"from":"31.1.236.2","rtt":35.554037444870985}]},{"hop":7,"result":[{"from":"31.1.232.5","rtt":74.00682171061145}]},{"hop":8,"result":[{"from":"1.0.0.2","rtt":105.336794688219}]},{"hop":9,"result":[{"from":"100.67.0.53","rtt":105.32710281478953}]}],"destination_replied":true}"#,
    ),
];

/// `(index into the ArkCampaign::run stream, JSON)`.
const ARK_PINS: [(usize, &str); 2] = [
    (
        3,
        r#"{"prb_id":3,"src_addr":"203.0.3.10","dst_addr":"31.2.135.243","type":"traceroute","result":[{"hop":1,"result":[{"from":"1.1.108.1","rtt":0.6404284944071986}]},{"hop":2,"result":[{"from":"1.0.127.7","rtt":0.45973392696085563}]},{"hop":3,"result":[{"from":"1.0.123.3","rtt":13.194986402601335}]},{"hop":4,"result":[{"from":"6.0.10.1","rtt":13.09834440791549}]},{"hop":5,"result":[{"x":"*"}]},{"hop":6,"result":[{"from":"31.3.11.6","rtt":57.53182075735735}]},{"hop":7,"result":[{"from":"31.3.53.3","rtt":57.857907348211434}]},{"hop":8,"result":[{"from":"31.3.45.2","rtt":122.30744897629526}]},{"hop":9,"result":[{"from":"31.0.4.2","rtt":137.78972107487553}]},{"hop":10,"result":[{"from":"31.0.157.4","rtt":143.64365857472313}]},{"hop":11,"result":[{"from":"6.0.38.2","rtt":143.77781679291408}]},{"hop":12,"result":[{"from":"31.2.131.1","rtt":145.21176205532407}]},{"hop":13,"result":[{"from":"31.2.132.6","rtt":147.80996480328898}]}],"destination_replied":false}"#,
    ),
    (
        11,
        r#"{"prb_id":1,"src_addr":"203.0.1.10","dst_addr":"31.0.63.96","type":"traceroute","result":[{"hop":1,"result":[{"from":"192.168.34.1","rtt":0.37365296816548776}]},{"hop":2,"result":[{"from":"1.0.193.1","rtt":0.4495114976518051}]},{"hop":3,"result":[{"from":"6.0.10.1","rtt":21.557352776470946}]},{"hop":4,"result":[{"from":"31.2.114.6","rtt":56.13857010067737}]},{"hop":5,"result":[{"from":"31.0.68.2","rtt":56.07565773730422}]},{"hop":6,"result":[{"x":"*"}]},{"hop":7,"result":[{"from":"31.0.63.96","rtt":123.05033838305326}]}],"destination_replied":true}"#,
    ),
];

fn world() -> (World, Topology) {
    let w = World::generate(WorldConfig::tiny(51));
    let topo = Topology::build(&w);
    (w, topo)
}

#[test]
fn atlas_flows_price_rtts_bit_for_bit() {
    let (w, topo) = world();
    let config = AtlasConfig {
        seed: 3,
        targets: 4,
        instances_per_target: 3,
    };
    let records = AtlasBuiltins::new(&w, &topo, config).run();
    for (i, json) in ATLAS_PINS {
        assert_eq!(records[i].to_atlas_json(), json, "Atlas record {i}");
    }
}

#[test]
fn ark_flows_price_rtts_bit_for_bit() {
    let (w, topo) = world();
    let config = ArkConfig {
        seed: 5,
        monitors: 10,
        traceroutes: Some(50),
    };
    let mut records = Vec::new();
    ArkCampaign::new(&w, &topo, config).run(|rec| records.push(rec.to_atlas_json()));
    for (i, json) in ARK_PINS {
        assert_eq!(records[i], json, "Ark record {i}");
    }
}
