"""Unit tests for cluster topology and ordering enumeration."""

import math

import pytest

from repro.hardware import (
    ETHERNET_100G,
    ETHERNET_800G,
    Cluster,
    Node,
    PAPER_CLUSTERS,
    make_cluster,
    paper_cluster,
)


def test_make_cluster_devices_and_counts():
    c = make_cluster([("T4-16G", 3), ("V100-32G", 1)])
    assert c.num_devices == 4
    assert c.gpu_type_counts == {"T4-16G": 3, "V100-32G": 1}
    assert c.is_heterogeneous
    assert len(c.devices) == 4
    assert c.devices[0].node_id == 0 and c.devices[3].node_id == 1


def test_cluster_from_devices_keeps_first_seen_type_order():
    """A plan's stage devices imply one node per type, in the order the
    types first appear — a pipeline that starts on V100 keeps it node 0."""
    from repro.hardware.cluster import cluster_from_devices

    paper = paper_cluster(3).devices  # 3 x T4 then 1 x V100
    devices = [paper[3], paper[0], paper[1], paper[2]]
    c = cluster_from_devices(devices, name="plan")
    assert c == make_cluster([("V100-32G", 1), ("T4-16G", 3)], name="plan")
    assert cluster_from_devices(paper) == make_cluster([("T4-16G", 3), ("V100-32G", 1)])


def test_homogeneous_flag():
    assert not make_cluster([("T4-16G", 4)]).is_heterogeneous


def test_total_memory():
    c = make_cluster([("T4-16G", 2)])
    assert c.total_memory_bytes == 2 * 16 * 2**30


def test_paper_clusters_match_table3():
    assert paper_cluster(3).gpu_type_counts == {"T4-16G": 3, "V100-32G": 1}
    assert paper_cluster(8).gpu_type_counts == {"V100-32G": 4, "A800-80G": 2}
    assert paper_cluster(11).gpu_type_counts == {"A800-80G": 4}
    assert PAPER_CLUSTERS[7] == "bloom-176b"
    assert PAPER_CLUSTERS[1] == "opt-13b"
    # interconnects: clusters 3,5,8,11 on 800G; 4,6,7 on 100G
    assert paper_cluster(5).inter_node_link is ETHERNET_800G
    assert paper_cluster(6).inter_node_link is ETHERNET_100G
    with pytest.raises(KeyError):
        paper_cluster(12)


def test_distinct_orderings_count_matches_multinomial():
    c = make_cluster([("T4-16G", 2), ("V100-32G", 1)])
    expected = math.factorial(3) // (math.factorial(2) * math.factorial(1))
    orderings = list(c.distinct_orderings())
    assert len(orderings) == expected == c.num_distinct_orderings()
    # type sequences must be unique
    seqs = {tuple(d.type_name for d in o) for o in orderings}
    assert len(seqs) == expected


def test_distinct_orderings_limit():
    c = paper_cluster(5)  # 4xT4 + 2xV100 -> C(6,2) = 15
    assert c.num_distinct_orderings() == 15
    assert len(list(c.distinct_orderings(limit=4))) == 4


def test_orderings_use_each_device_once():
    c = make_cluster([("T4-16G", 2), ("V100-32G", 2)])
    for ordering in c.distinct_orderings():
        assert len(set(d.name for d in ordering)) == c.num_devices


def test_link_between_intra_vs_inter_node():
    c = make_cluster([("V100-32G", 2), ("T4-16G", 1)], inter_node_link=ETHERNET_100G)
    d = c.devices
    assert c.link_between(d[0], d[1]).name == "nvlink-v100"
    assert c.link_between(d[0], d[2]) is ETHERNET_100G
    assert c.link_between(d[0], d[0]).name == "loopback"


def test_cluster_validation():
    with pytest.raises(ValueError, match="at least one node"):
        Cluster(nodes=())
    with pytest.raises(ValueError, match="duplicate"):
        Cluster(nodes=(Node(0, "T4-16G", 1), Node(0, "T4-16G", 1)))
    with pytest.raises(ValueError, match="at least one GPU"):
        Node(0, "T4-16G", 0)


def test_describe_mentions_composition():
    text = paper_cluster(3).describe()
    assert "3xT4-16G" in text and "1xV100-32G" in text
