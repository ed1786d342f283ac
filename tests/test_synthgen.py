from chatscreen.corpus_io import label_conversations, parse_pan_corpus
from chatscreen.synthgen import MAX_MESSAGES, SynthSpec, generate


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        a = generate(SynthSpec(seed=99, n_conversations=30))
        b = generate(SynthSpec(seed=99, n_conversations=30))
        assert a.xml_bytes == b.xml_bytes
        assert a.predator_ids == b.predator_ids

    def test_different_seed_differs(self):
        a = generate(SynthSpec(seed=1, n_conversations=10))
        b = generate(SynthSpec(seed=2, n_conversations=10))
        assert a.xml_bytes != b.xml_bytes


class TestPlant:
    def test_zero_fraction_empty_ground_truth(self):
        result = generate(SynthSpec(seed=5, n_conversations=20,
                                    predator_fraction=0.0))
        assert result.predator_ids == []

    def test_positive_count_exact(self):
        result = generate(SynthSpec(seed=7, n_conversations=500,
                                    predator_fraction=0.05))
        parsed = parse_pan_corpus(result.xml_bytes)
        labeled = label_conversations(parsed.conversations,
                                      set(result.predator_ids))
        positives = [c.id for c, pos in labeled if pos]
        assert len(positives) == 25
        assert sorted(positives) == sorted(result.positive_conversation_ids)

    def test_round_trips_through_parser(self):
        result = generate(SynthSpec(seed=11, n_conversations=25))
        parsed = parse_pan_corpus(result.xml_bytes)
        assert parsed.skipped_messages == []
        assert len(parsed.conversations) == 25
        assert parsed.conversations == result.conversations

    def test_lengths_within_bounds(self):
        # mean length 500: about a third of the draws exceed the cap
        result = generate(SynthSpec(seed=13, n_conversations=10,
                                    geometric_p=0.002))
        lengths = [len(conv.messages) for conv in result.conversations]
        assert min(lengths) >= 1 and max(lengths) == MAX_MESSAGES
        for conv in result.conversations:
            lines = [m.line_no for m in conv.messages]
            assert lines == list(range(1, len(lines) + 1))

    def test_one_predator_per_positive_conversation(self):
        result = generate(SynthSpec(seed=17, n_conversations=40,
                                    predator_fraction=0.1))
        assert len(result.predator_ids) == len(result.positive_conversation_ids)
        predators = set(result.predator_ids)
        by_id = {c.id: c for c in result.conversations}
        for conv_id in result.positive_conversation_ids:
            authors = {m.author for m in by_id[conv_id].messages}
            assert len(authors & predators) == 1


class TestSpecValidation:
    def test_default_pools_disjoint(self):
        spec = SynthSpec(seed=1)
        pools = (spec.background_pool, spec.predator_pool, spec.victim_pool)
        assert all(pools)
        assert len(set().union(*pools)) == sum(len(p) for p in pools)
